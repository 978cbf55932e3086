package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"kwsearch/internal/cn"
	"kwsearch/internal/exec"
	"kwsearch/internal/parallel"
	"kwsearch/internal/shard"
)

// replayCap bounds how many of the stream's requests a replay visits;
// beyond it the per-layer medians do not move and the span file grows.
const replayCap = 1000

// Replay phases and their shares of the replay's time budget. Each phase
// walks the stream from its start until its share is spent, so every
// phase covers a prefix of the same request list.
const (
	shareWarm  = 0.40 // served request, traced request, and the core path
	shareExec  = 0.35 // the executor and the layers under it, results cold
	shareShard = 0.15 // the same requests through a 2-shard coordinator
	shareCold  = 0.10 // binding after the binder is invalidated
)

// replay times each layer's public functions from outside, one request
// at a time, on the warm engine the load run left behind. Spans go to
// rec; nWarm..nCold count the requests each phase covered.
type replay struct {
	st  *stack
	rec *recorder
	ctx context.Context
	w   *workload
	l   *loader // its first client sends the HTTP requests

	// Per-request figures the span tree does not hold.
	execStats []exec.Stats
	shardWork []time.Duration // Σ shard Elapsed per request
	shardMrg  []time.Duration
	joinRows  []float64
	nWarm     int
	nExec     int
	nShard    int
	nCold     int
}

// phase runs f on stream positions 0, 1, ... until budget is spent or
// the replay cap is reached, always covering at least one request, and
// returns how many it covered.
func (rp *replay) phase(budget time.Duration, f func(i int, r request) error) (int, error) {
	n := min(len(rp.w.Stream), replayCap)
	start := time.Now()
	i := 0
	for ; i < n && (i == 0 || time.Since(start) < budget); i++ {
		if err := f(i, rp.w.Stream[i]); err != nil {
			return i, err
		}
	}
	return i, nil
}

// run executes the four phases within budget.
func (rp *replay) run(budget time.Duration) error {
	var err error
	frac := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }
	if rp.nWarm, err = rp.phase(frac(shareWarm), rp.warm); err != nil {
		return fmt.Errorf("replay warm: %w", err)
	}
	if rp.nExec, err = rp.phase(frac(shareExec), rp.exec); err != nil {
		return fmt.Errorf("replay exec: %w", err)
	}
	coord, err := shard.New(rp.st.engine, shard.Options{Shards: 2})
	if err != nil {
		return fmt.Errorf("replay shard: %w", err)
	}
	if rp.nShard, err = rp.phase(frac(shareShard), func(i int, r request) error { return rp.shard(coord, i, r) }); err != nil {
		return fmt.Errorf("replay shard: %w", err)
	}
	if rp.nCold, err = rp.phase(frac(shareCold), rp.cold); err != nil {
		return fmt.Errorf("replay cold: %w", err)
	}
	return nil
}

// warm replays request i as served: over HTTP, in process with tracing
// off and on, and then down the path the engine took for it (exec
// result-cache hit for pooled requests, the Global Pipeline otherwise).
// An untimed query first fills whatever the request touches, so every
// timed call sees the same warm engine; refresh's fill costs show in
// the exec and cold phases and in the load run's cache ratios.
func (rp *replay) warm(i int, r request) error {
	e := rp.st.engine
	req := coreRequest(r)
	if _, err := e.Query(rp.ctx, req); err != nil {
		return fmt.Errorf("%q in process: %w", r.Query, err)
	}
	rec := rp.rec
	root := rec.start("request", -1, i)
	defer rec.end(root)

	var herr error
	rec.timed("server.http", root, i, func() {
		var status int
		_, status, _, herr = rp.l.send(rp.l.http[0], r)
		if herr == nil && status != http.StatusOK {
			herr = fmt.Errorf("status %d", status)
		}
	})
	if herr != nil {
		return fmt.Errorf("%q over http: %w", r.Query, herr)
	}
	// The untraced and traced queries alternate which goes first, so
	// neither always runs on the state the other left.
	traced := req
	traced.Trace = true
	var qerr, terr error
	plain := func() { rec.timed("core.query", root, i, func() { _, qerr = e.Query(rp.ctx, req) }) }
	withTrace := func() { rec.timed("core.query_traced", root, i, func() { _, terr = e.Query(rp.ctx, traced) }) }
	if i%2 == 0 {
		plain()
		withTrace()
	} else {
		withTrace()
		plain()
	}
	if qerr = errors.Join(qerr, terr); qerr != nil {
		return fmt.Errorf("%q in process: %w", r.Query, qerr)
	}

	// The core path: the lower layers Engine.Query calls, in its order.
	path := rec.start("core.path", root, i)
	defer rec.end(path)
	var release func()
	var aerr error
	rec.timed("resilience.admit", path, i, func() { release, aerr = e.Gate().Acquire(rp.ctx) })
	if aerr != nil {
		return fmt.Errorf("admit: %w", aerr)
	}
	release()
	rec.timed("obs.snapshot", path, i, func() { e.Registry().Snapshot() })
	var terms []string
	rec.timed("text.tokenize", path, i, func() { terms = e.Terms(r.Query, false) })
	if req.Workers > 1 {
		rec.timed("exec.postings", path, i, func() {
			for _, t := range terms {
				e.Exec.Postings(t)
			}
		})
		rec.timed("exec.hit", path, i, func() {
			_, _, qerr = e.Exec.TopK(rp.ctx, exec.Query{Terms: terms, Workers: req.Workers})
		})
	} else {
		rec.timed("invindex.postings", path, i, func() {
			for _, t := range terms {
				e.Index.Postings(t)
			}
		})
		var b *cn.Binding
		rec.timed("cn.bind", path, i, func() { b = e.Binder.Bind(terms) })
		var cns []*cn.CN
		rec.timed("plan.get", path, i, func() { cns, qerr = rp.plan(b) })
		if qerr == nil {
			rec.timed("cn.pipeline", path, i, func() {
				ev := cn.NewEvaluatorFrom(e.DB, e.Index, b)
				_, qerr = cn.TopKGlobalPipelineCtx(rp.ctx, ev, cns, 10, nil)
			})
		}
	}
	rec.timed("obs.snapshot", path, i, func() { e.Registry().Snapshot() })
	return qerr
}

// plan looks b's CN set up in the engine's plan cache.
func (rp *replay) plan(b *cn.Binding) ([]*cn.CN, error) {
	e := rp.st.engine
	ps, _, err := e.Plans.Get(rp.ctx, e.Schema, cn.EnumerateOptions{
		MaxSize: 5, KeywordTables: b.KeywordTables(), FreeTables: e.FreeTables,
	})
	if err != nil {
		return nil, err
	}
	return ps.CNs(), nil
}

// exec replays request i through the executor with the result cache
// cold, then its stages one by one, the default path's Global Pipeline,
// and the join kernel over every CN without pruning.
func (rp *replay) exec(i int, r request) error {
	e, rec := rp.st.engine, rp.rec
	req := coreRequest(r)
	q := exec.Query{Terms: e.Terms(r.Query, false), Workers: req.Workers}
	e.Exec.InvalidateResults()
	var xst exec.Stats
	var err error
	rec.timed("exec.topk", -1, i, func() { _, xst, err = e.Exec.TopK(rp.ctx, q) })
	if err != nil {
		return err
	}
	rp.execStats = append(rp.execStats, xst)
	rec.timed("exec.hit", -1, i, func() { _, _, err = e.Exec.TopK(rp.ctx, q) })
	if err != nil {
		return err
	}
	rec.timed("invindex.postings", -1, i, func() {
		for _, t := range q.Terms {
			e.Index.Postings(t)
		}
	})
	var b *cn.Binding
	rec.timed("cn.bind", -1, i, func() { b = e.Binder.Bind(q.Terms) })
	var cns []*cn.CN
	rec.timed("plan.get", -1, i, func() { cns, err = rp.plan(b) })
	if err != nil {
		return err
	}
	rec.timed("cn.pipeline", -1, i, func() {
		_, err = cn.TopKGlobalPipelineCtx(rp.ctx, cn.NewEvaluatorFrom(e.DB, e.Index, b), cns, 10, nil)
	})
	if err != nil {
		return err
	}
	ev := cn.NewEvaluatorFrom(e.DB, e.Index, b)
	rec.timed("parallel.decompose", -1, i, func() {
		jobs := make([]parallel.Job, len(cns))
		for j, c := range cns {
			jobs[j] = parallel.Decompose(c, ev)
		}
		parallel.Assign(jobs, q.Workers)
	})
	rec.timed("cn.prewarm", -1, i, func() { err = ev.PrewarmCtx(rp.ctx, cns) })
	if err != nil {
		return err
	}
	rows := 0
	rec.timed("cn.join", -1, i, func() {
		jev := cn.NewEvaluatorFrom(e.DB, e.Index, b)
		for _, c := range cns {
			rows += len(jev.EvaluateCN(c))
		}
	})
	rp.joinRows = append(rp.joinRows, float64(rows))
	return nil
}

// shard serves the request through the coordinator with the shards'
// result caches cold, so each shard evaluates.
func (rp *replay) shard(coord *shard.Coordinator, i int, r request) error {
	coord.InvalidateResults()
	var err error
	var work, merge time.Duration
	rp.rec.timed("shard.query", -1, i, func() {
		res, qerr := coord.Query(rp.ctx, coreRequest(r))
		err = qerr
		if qerr == nil {
			for _, s := range res.Stats.Shards {
				work += s.Elapsed
			}
			merge = res.Stats.Merge
		}
	})
	if err != nil {
		return err
	}
	rp.shardWork = append(rp.shardWork, work)
	rp.shardMrg = append(rp.shardMrg, merge)
	return nil
}

// cold times binding right after the binder dropped every cached term
// binding and join lookup.
func (rp *replay) cold(i int, r request) error {
	e := rp.st.engine
	terms := e.Terms(r.Query, false)
	e.Binder.Invalidate()
	rp.rec.timed("cn.bind_cold", -1, i, func() { e.Binder.Bind(terms) })
	return nil
}
