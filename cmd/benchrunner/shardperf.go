package main

// E40 — scatter-gather sharding. The exec workload runs through the
// internal/shard coordinator at 1, 2, 4 and 8 shards (one pool worker
// per shard, so total parallelism equals the shard count) and the
// answers must be byte-identical across every arm and to the
// single-engine executor. The timing arms feed the `sharding` block of
// BENCH_exec.json; the identity check doubles as benchrunner's
// -shard-gate (wired into verify.sh).

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"kwsearch/internal/core"
	"kwsearch/internal/dataset"
	"kwsearch/internal/exec"
	"kwsearch/internal/shard"
)

func init() {
	register("E40", "Scatter-gather sharding: one logical engine over N partitioned executors (speedup, merge overhead, byte-identity)", runE40)
}

// shardArms are the shard counts E40 measures.
var shardArms = []int{1, 2, 4, 8}

// shardArmJSON is one shard-count arm of the sharding block.
type shardArmJSON struct {
	Shards int `json:"shards"`
	// WallNS is the best-of-3 wall time of the whole workload through
	// the coordinator in the warm steady state (plans and binder warm,
	// result caches invalidated per run), on this machine — with fewer
	// cores than shards the fan-out goroutines timeshare and this
	// number shows overhead, not speedup.
	WallNS int64 `json:"wall_ns"`
	// MergeNS is the summed coordinator merge overhead across the
	// workload's queries (from Stats.Merge, one representative run).
	MergeNS int64 `json:"merge_ns"`
	// CriticalNS models the workload's wall time on a machine with one
	// core per shard: per query, the slowest shard's sub-query timed
	// alone (no scheduler contention), summed over the workload.
	CriticalNS int64 `json:"critical_ns"`
	// WorkNS is the summed per-shard evaluation time — the total work
	// the fan-out spends, whose growth over the 1-shard arm is the
	// sharding tax.
	WorkNS int64 `json:"work_ns"`
	// Speedup is WallNS relative to the 1-shard arm (measured, this
	// machine); ModelSpeedup is CriticalNS+MergeNS relative to the
	// 1-shard arm's CriticalNS (what >=N cores would deliver).
	Speedup      float64 `json:"speedup"`
	ModelSpeedup float64 `json:"model_speedup"`
}

// shardingJSON is the `sharding` block of BENCH_exec.json (E40).
type shardingJSON struct {
	Dataset string `json:"dataset"`
	Queries int    `json:"queries"`
	// Cores is runtime.GOMAXPROCS(0) at measurement time — the context
	// for reading Speedup vs ModelSpeedup.
	Cores int            `json:"cores"`
	Arms  []shardArmJSON `json:"arms"`
}

// canonicalAnswer renders a response for exact comparison: the partial
// flag, then per result the score's float bits, the CN's canonical form
// and the bound tuples in node order — any divergence in order, score
// bits or bindings shows up.
func canonicalAnswer(resp *core.Response) string {
	var b strings.Builder
	if resp.Partial {
		b.WriteString("partial\n")
	}
	for _, r := range resp.Results {
		fmt.Fprintf(&b, "%016x %s", math.Float64bits(r.Score), r.CN.Canonical())
		for _, tp := range r.Tuples {
			fmt.Fprintf(&b, " %s#%d", tp.Table, tp.ID)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// shardWorkloadRequests lifts execQueries onto core.Request. The arm
// uses k=100 rather than the exec workload's k=10: at k=10 the single
// engine's top-k abandonment prunes most of the work sharding would
// split (each shard still owes its own full top-k over 1/N data, with
// a weaker local bound), while at k=100 evaluation dominates and the
// partition's work split shows through.
func shardWorkloadRequests() []core.Request {
	reqs := make([]core.Request, 0, len(execQueries))
	for _, terms := range execQueries {
		reqs = append(reqs, core.Request{Query: strings.Join(terms, " "), TopK: 100})
	}
	return reqs
}

// measureSharding runs the workload through the coordinator at each
// shard count, verifying byte-identity against the 1-shard arm and the
// single-engine executor before timing anything, and returns the
// sharding block.
func measureSharding() (shardingJSON, error) {
	engine := core.NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	reqs := shardWorkloadRequests()
	doc := shardingJSON{Dataset: "dblp", Queries: len(reqs), Cores: runtime.GOMAXPROCS(0)}

	// Single-engine reference through the exec pool (the path every
	// shard executor also runs, so the comparison covers order and ties).
	refs := make([]string, len(reqs))
	for i, req := range reqs {
		breq := req
		breq.Workers = 2
		resp, err := engine.Query(context.Background(), breq)
		if err != nil {
			return doc, err
		}
		refs[i] = canonicalAnswer(resp)
	}

	var baseline, baselineCritical time.Duration
	for _, n := range shardArms {
		coord, err := shard.New(engine, shard.Options{Shards: n, Workers: 1})
		if err != nil {
			return doc, err
		}
		// Identity pass (also warms the arm's private executor caches).
		for i, req := range reqs {
			resp, err := coord.Query(context.Background(), req)
			if err != nil {
				return doc, err
			}
			if got := canonicalAnswer(resp); got != refs[i] {
				return doc, fmt.Errorf("shards=%d query %q: answer differs from the single-engine reference\ngot:\n%swant:\n%s",
					n, req.Query, got, refs[i])
			}
		}
		// Timing pass: warm plans/binder, cold result caches. The merge
		// total is taken from the last of the three runs — merge time is
		// measured per query, not per best-of batch.
		var mergeTotal time.Duration
		wall := bestOf(3, func() {
			coord.InvalidateResults()
			mergeTotal = 0
			for _, req := range reqs {
				resp, err := coord.Query(context.Background(), req)
				if err != nil {
					panic(err)
				}
				mergeTotal += resp.Stats.Merge
			}
		})
		critical, work, err := shardCriticalPath(coord, reqs)
		if err != nil {
			return doc, err
		}
		arm := shardArmJSON{
			Shards: n, WallNS: wall.Nanoseconds(), MergeNS: mergeTotal.Nanoseconds(),
			CriticalNS: critical.Nanoseconds(), WorkNS: work.Nanoseconds(),
			Speedup: 1, ModelSpeedup: 1,
		}
		if n == 1 {
			baseline = wall
			baselineCritical = critical
		} else {
			if wall > 0 {
				arm.Speedup = float64(baseline) / float64(wall)
			}
			if modeled := critical + mergeTotal; modeled > 0 {
				arm.ModelSpeedup = float64(baselineCritical) / float64(modeled)
			}
		}
		doc.Arms = append(doc.Arms, arm)
	}
	return doc, nil
}

// shardCriticalPath times each shard's sub-query alone — the
// coordinator's partitioned executors, queried serially, best of 3 with
// a cold result cache — so the numbers measure per-shard work rather
// than this machine's core count. Per query it accumulates the slowest
// shard (the critical path a one-core-per-shard deployment waits on)
// and the shard sum (the total work the fan-out spends). The executors
// are already warm from the arm's identity and timing passes.
func shardCriticalPath(coord *shard.Coordinator, reqs []core.Request) (critical, work time.Duration, err error) {
	for _, req := range reqs {
		q := exec.Query{Terms: coord.Terms(req.Query, false), K: req.TopK, MaxCNSize: req.MaxCNSize, Workers: 1}
		slowest := time.Duration(0)
		for s := 0; s < coord.Shards(); s++ {
			x := coord.Executor(s)
			d := bestOf(3, func() {
				x.InvalidateResults()
				if _, _, qerr := x.TopK(context.Background(), q); qerr != nil {
					err = qerr
				}
			})
			if err != nil {
				return 0, 0, err
			}
			work += d
			if d > slowest {
				slowest = d
			}
		}
		critical += slowest
	}
	return critical, work, nil
}

func printSharding(doc shardingJSON) {
	fmt.Printf("   cores=%d (speedup is measured wall on this machine; model-speedup is the\n"+
		"   critical path — slowest shard timed alone — i.e. >=N-core wall)\n", doc.Cores)
	for _, arm := range doc.Arms {
		fmt.Printf("   shards=%d wall %-12v merge %-10v critical %-12v speedup %.2fx model %.2fx\n",
			arm.Shards, time.Duration(arm.WallNS), time.Duration(arm.MergeNS),
			time.Duration(arm.CriticalNS), arm.Speedup, arm.ModelSpeedup)
	}
}

func runE40() error {
	doc, err := measureSharding()
	if err != nil {
		return err
	}
	printSharding(doc)
	fmt.Printf("   byte-identity: coordinator answers at N=1/2/4/8 equal the single-engine reference\n")
	return nil
}
