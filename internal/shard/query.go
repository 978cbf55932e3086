package shard

import (
	"context"
	"errors"
	"math"
	"strconv"
	"sync"
	"time"

	"kwsearch/internal/cn"
	"kwsearch/internal/core"
	"kwsearch/internal/exec"
	"kwsearch/internal/obs"
)

// shardOut is one shard's sub-query outcome.
type shardOut struct {
	results []cn.Result
	stats   exec.Stats
	err     error
	elapsed time.Duration
}

// partial reports that the shard's sub-query ran out of deadline: its
// results are a certified prefix of its local top-k.
func (o shardOut) partial() bool { return errors.Is(o.err, context.DeadlineExceeded) }

// Query runs one search request over the shard fleet inside the
// coordinator's envelope; the contract is core.Envelope.Run's exactly:
// deadlines yield certified partial responses with nil errors,
// admission sheds with ErrOverloaded, and the merged answer is
// byte-identical to the single-engine answer (order, score bits,
// partial prefixes) — the package tests assert this against both the
// 1-shard coordinator and the serial oracle.
func (c *Coordinator) Query(ctx context.Context, req core.Request) (*core.Response, error) {
	return c.Run(ctx, req, c)
}

// Terms tokenizes (and optionally cleans) the query with the base
// engine's tokenizer and cleaner, once per logical query.
func (c *Coordinator) Terms(query string, clean bool) []string {
	return c.base.Terms(query, clean)
}

// Evaluate is the coordinator's envelope Body. Candidate-network
// queries scatter to every shard's executor (each evaluating only the
// results it owns) and gather through a k-way merge in the
// deterministic cn.Less order; every other semantics is evaluated by
// the unpartitioned base engine, whose scoring has no sound per-shard
// decomposition.
func (c *Coordinator) Evaluate(ctx context.Context, terms []string, req core.Request, sp *core.Trace, st *core.Stats) ([]core.Result, error) {
	if req.Semantics != core.CandidateNetworks {
		return c.base.Evaluate(ctx, terms, req, sp, st)
	}
	n := len(c.execs)
	sp.SetAttr("shards", n)
	q := exec.Query{Terms: terms, K: req.TopK, MaxCNSize: req.MaxCNSize, Workers: req.Workers}
	if q.Workers <= 0 {
		q.Workers = c.workers
	}

	outs := make([]shardOut, n)
	spans := make([]*obs.Span, n)
	for s := range spans {
		// Children created serially before launch so the span tree's
		// shape is deterministic (the spans themselves are written only
		// by their own goroutine).
		spans[s] = sp.Child("shard-" + strconv.Itoa(s))
	}
	var wg sync.WaitGroup
	for s := range c.execs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sctx := ctx
			if c.shardCtx != nil {
				sctx = c.shardCtx(sctx, s)
			}
			t0 := time.Now()
			rs, xst, err := c.execs[s].TopK(sctx, q)
			o := shardOut{results: rs, stats: xst, err: err, elapsed: time.Since(t0)}
			outs[s] = o
			ssp := spans[s]
			ssp.SetAttr("results", len(rs))
			ssp.SetAttr("partial", o.partial())
			if err != nil && !o.partial() {
				ssp.SetAttr("error", err.Error())
			}
			ssp.End()
		}(s)
	}
	wg.Wait()
	mergeStart := time.Now()

	// A shard that ran out of deadline is partial, wherever it stopped;
	// gather certifies the merge against it. Any other shard error fails
	// the logical query: cancellation or an injected fault has no sound
	// partial answer at the coordinator (the failed shard certified
	// nothing).
	for _, o := range outs {
		if o.err != nil && !o.partial() {
			return nil, o.err
		}
	}

	merged, shardStats, partial := gather(outs, req.TopK)
	st.Merge = time.Since(mergeStart)
	st.Shards = shardStats
	xsts := make([]exec.Stats, n)
	for s, o := range outs {
		xsts[s] = o.stats
	}
	mx := exec.MergeStats(xsts)
	st.Exec = &mx
	st.PlanSignature = mx.PlanKey
	sp.SetAttr("merge_us", st.Merge.Microseconds())

	out := make([]core.Result, len(merged))
	for i, r := range merged {
		out[i] = core.Result{Score: r.Score, Tuples: r.Tuples, CN: r.CN}
	}
	if partial {
		return out, context.DeadlineExceeded
	}
	return out, nil
}

// gather k-way-merges the shards' rank-ordered result lists into the
// global top-k and certifies the partial prefix.
//
// Soundness (the full argument is DESIGN.md's "Cross-shard merge
// proof"): each shard's list is its local top-k in the deterministic
// cn.Less total order; the shards' result sets are disjoint (every
// result has exactly one owner tuple) and their union is complete, so
// the global top-k is contained in the union of the local top-ks and
// equals the first k elements of their Less-ordered merge. Disjointness
// means no result appears twice, and Less's tuple-level tie-breaks make
// the merge order independent of which shard a result came from — the
// merged list is byte-identical to the single-engine answer. The merge
// stops after k pops; the per-shard pull counts are the
// merge-efficiency signal in Stats.Shards.
//
// Partial certification generalizes the single-engine abandoned-bound
// proof: each partial shard reports the highest score bound any of its
// abandoned CNs could still reach (exec.Stats.CertifiedBound), and no
// complete shard has unevaluated work, so cutting the merged list where
// scores stop strictly dominating the maximum such bound yields a
// provable prefix of the full global top-k. A shard interrupted before
// its pool could certify anything (its context expired before the
// pool ran, or plan compilation or prewarm hit the deadline) has a
// vacuous certificate; the global prefix is then empty.
func gather(outs []shardOut, k int) ([]cn.Result, []core.ShardStat, bool) {
	n := len(outs)
	idx := make([]int, n)
	var merged []cn.Result
	for len(merged) < k {
		best := -1
		for s := 0; s < n; s++ {
			if idx[s] < len(outs[s].results) &&
				(best == -1 || cn.Less(outs[s].results[idx[s]], outs[best].results[idx[best]])) {
				best = s
			}
		}
		if best == -1 {
			break
		}
		merged = append(merged, outs[best].results[idx[best]])
		idx[best]++
	}

	partial := false
	bound := math.Inf(-1)
	for _, o := range outs {
		if !o.partial() {
			continue
		}
		partial = true
		b := math.Inf(1) // no certificate: nothing survives
		if o.stats.Partial {
			b = o.stats.CertifiedBound
		}
		bound = math.Max(bound, b)
	}
	if partial {
		merged = cn.CertifiedPrefix(merged, bound)
	}

	stats := make([]core.ShardStat, n)
	for s := range outs {
		stats[s] = core.ShardStat{
			Shard:   s,
			Results: len(outs[s].results),
			Pulled:  idx[s],
			Partial: outs[s].partial(),
			Elapsed: outs[s].elapsed,
			Exec:    &outs[s].stats,
		}
	}
	return merged, stats, partial
}
