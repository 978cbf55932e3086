package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"kwsearch/internal/obs"
)

// named is one reported metric.
type named struct {
	name  string
	value float64
	unit  string
}

func printMetrics(kind string, ms []named) {
	for _, m := range ms {
		fmt.Printf("%-6s %-28s %16.6f %s\n", kind, m.name, m.value, m.unit)
	}
}

// quantile returns the q-quantile of xs by nearest rank (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windows cuts a run into its measurement windows of size requests and
// returns each window's throughput (req/s), median latency (ms) and CPU
// per request (ms). A window runs from the last answer of the window
// before it to its own last answer.
func windows(res loadResult, size int) (qps, p50, cpu []float64) {
	var prevEnd, prevCPU time.Duration
	for k := 0; (k+1)*size <= len(res.Samples); k++ {
		var end time.Duration
		var lat []float64
		for _, s := range res.Samples[k*size : (k+1)*size] {
			end = max(end, s.done)
			if s.answered {
				lat = append(lat, float64(s.lat)/1e6)
			}
		}
		qps = append(qps, ratio(float64(size), (end-prevEnd).Seconds()))
		p50 = append(p50, quantile(lat, 0.5))
		cpu = append(cpu, float64(res.WindowCPU[k]-prevCPU)/1e6/float64(size))
		prevEnd, prevCPU = end, res.WindowCPU[k]
	}
	return qps, p50, cpu
}

// msOf converts durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// beyond counts the values of xs above v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// endToEnd derives the metrics of one load run measured in windows of
// window requests; setup_s and heap_mb are measured apart from it.
func endToEnd(res loadResult, window int) []named {
	done := float64(res.completed())
	qps, p50, cpu := windows(res, window)
	return []named{
		{"qps", quantile(qps, 0.5), "req/s"},
		{"latency_p50_ms", quantile(p50, 0.5), "ms"},
		{"latency_p99_ms", quantile(msOf(res.latencies()), 0.99), "ms"},
		{"cpu_ms_per_query", quantile(cpu, 0.5), "ms"},
		{"allocs_per_query", ratio(float64(res.Mallocs), done), "allocs"},
	}
}

// hitRate reads a cache's hit share from a registry delta.
func hitRate(d obs.Snapshot, prefix string) float64 {
	h, m := float64(d.Counters[prefix+".hits"]), float64(d.Counters[prefix+".misses"])
	return ratio(h, h+m)
}

// perLayer derives the per-layer metrics from the replay, the load run
// and the registry's change over the load run (delta) and its state
// after it (after).
func perLayer(rp *replay, res loadResult, delta, after obs.Snapshot) []named {
	rec := rp.rec
	p50 := func(name string) float64 {
		us, _ := rec.byName(name)
		return quantile(us, 0.5)
	}
	p50allocs := func(name string) float64 {
		_, a := rec.byName(name)
		return quantile(a, 0.5)
	}

	// Per-request figures of the warm phase: the served and traced
	// requests against the in-process one, and the core path's coverage.
	kids := rec.children()
	var overhead, traceCost, self []float64
	var sumQuery, sumSelf float64
	for id, s := range rec.spans {
		if s.Name != "request" {
			continue
		}
		by := map[string]int{}
		for _, c := range kids[id] {
			by[rec.spans[c].Name] = c
		}
		q := float64(rec.dur(by["core.query"])) / 1e3
		overhead = append(overhead, float64(rec.dur(by["server.http"]))/1e3-q)
		traceCost = append(traceCost, float64(rec.dur(by["core.query_traced"]))/1e3-q)
		path := by["core.path"]
		covered := float64(rec.coverage(path, kids[path])) / 1e3
		self = append(self, q-covered)
		sumQuery += q
		sumSelf += q - covered
	}

	// Per-request figures of the exec phase.
	stage := func(name string) []float64 { us, _ := rec.byName(name); return us }
	topk, bind, plan, dec, pre := stage("exec.topk"), stage("cn.bind"), stage("plan.get"), stage("parallel.decompose"), stage("cn.prewarm")
	// cn.bind and plan.get spans of the warm phase come first; the exec
	// phase's are the last len(topk).
	bind, plan = bind[len(bind)-len(topk):], plan[len(plan)-len(topk):]
	var pool []float64
	for i := range topk {
		pool = append(pool, topk[i]-bind[i]-plan[i]-dec[i]-pre[i])
	}
	var skipped, cns, busy, idle float64
	for _, st := range rp.execStats {
		skipped += float64(st.Skipped)
		cns += float64(st.CNs)
		for w := range st.WorkerBusy {
			busy += float64(st.WorkerBusy[w])
			idle += float64(st.WorkerIdle[w])
		}
	}
	var shardWork, single float64
	for i := 0; i < len(rp.shardWork) && i < len(topk); i++ {
		shardWork += float64(rp.shardWork[i]) / 1e3
		single += topk[i]
	}
	var merge []float64
	for _, d := range rp.shardMrg {
		merge = append(merge, float64(d)/1e3)
	}

	done := float64(res.completed())
	att := float64(res.Attempted)
	return []named{
		{"server.overhead_us", quantile(overhead, 0.5), "us"},
		{"obs.snapshot_us", p50("obs.snapshot"), "us"},
		{"obs.trace_us", quantile(traceCost, 0.5), "us"},
		{"core.query_us", p50("core.query"), "us"},
		{"core.query_allocs", p50allocs("core.query"), "allocs"},
		{"core.self_us", quantile(self, 0.5), "us"},
		{"core.unattributed_frac", ratio(sumSelf, sumQuery), "ratio"},
		{"text.tokenize_us", p50("text.tokenize"), "us"},
		{"resilience.admit_wait_us", after.Histograms["admission.wait_us"].P50, "us"},
		{"resilience.shed", float64(delta.Counters["admission.shed"]), "count"},
		{"exec.hit_us", p50("exec.hit"), "us"},
		{"exec.topk_us", p50("exec.topk"), "us"},
		{"exec.topk_allocs", p50allocs("exec.topk"), "allocs"},
		{"exec.pool_us", quantile(pool, 0.5), "us"},
		{"exec.prune_frac", ratio(skipped, cns), "ratio"},
		{"exec.busy_frac", ratio(busy, busy+idle), "ratio"},
		{"cn.bind_us", p50("cn.bind"), "us"},
		{"cn.bind_cold_us", p50("cn.bind_cold"), "us"},
		{"invindex.postings_us", p50("invindex.postings"), "us"},
		{"plan.get_us", p50("plan.get"), "us"},
		{"parallel.decompose_us", p50("parallel.decompose"), "us"},
		{"cn.prewarm_us", p50("cn.prewarm"), "us"},
		{"cn.pipeline_us", p50("cn.pipeline"), "us"},
		{"cn.pipeline_allocs", p50allocs("cn.pipeline"), "allocs"},
		{"cn.join_us", p50("cn.join"), "us"},
		{"cn.join_allocs", p50allocs("cn.join"), "allocs"},
		{"cn.join_rows", quantile(rp.joinRows, 0.5), "rows"},
		{"shard.query_us", p50("shard.query"), "us"},
		{"shard.merge_us", quantile(merge, 0.5), "us"},
		{"shard.work_ratio", ratio(shardWork, single), "ratio"},
		{"cache.results_hit_rate", hitRate(delta, "cache.results"), "ratio"},
		{"cache.postings_hit_rate", hitRate(delta, "cache.postings"), "ratio"},
		{"cache.bind_hit_rate", hitRate(delta, "cache.bindq"), "ratio"},
		{"plan.hit_rate", hitRate(delta, "plan"), "ratio"},
		{"cn.bind_builds_per_query", ratio(float64(delta.Counters["bind.builds"]), done), "count"},
		{"runtime.gc_cpu_frac", res.GCCPU, "ratio"},
		{"slo_miss_frac", ratio(float64(res.SLOMiss), att), "ratio"},
		{"failed_frac", ratio(float64(res.failed()), att), "ratio"},
		{"wrong_frac", ratio(float64(res.Wrong), att), "ratio"},
	}
}
