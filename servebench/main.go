// Command servebench is the serving benchmark: it starts kwsd's stack
// (DBLP engine, admission 8/16, slow-query log, discarded info log) on a
// loopback port, drives one traffic mix through POST /query from a
// closed loop of two clients, checks every answer against the serial
// oracle exec.TopKSerial, and prints the end-to-end metrics. With
// -trace 1 it then replays the mix through each layer's public
// functions and prints the per-layer metrics instead. README.md lists
// every metric and workload.
//
//	servebench --workload tail --seed 7 --seconds 15 --trace 0
//
// Every output line but the last is a report for people; the last is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// setupReps is how many stacks a run starts, and stops again, before it
// starts the one it measures, and again after the load run; setup_s is
// the median over all of them. One start takes ~5 ms, and a few of
// every run's starts take half as long again while other processes on
// the machine load it, so the median is taken over many starts, at both
// ends of the run because the machine's speed drifts over tens of
// seconds.
const setupReps = 50

// oracleWorkers computes reference answers in parallel before the timed
// window.
const oracleWorkers = 2

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "traffic mix: hot | tail | hub | refresh")
	seed := flag.Int64("seed", 1, "seed for the request order (and hot's popularity draws)")
	seconds := flag.Int("seconds", 10, "measured seconds; with -trace 1, half load and half replay")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	spans := flag.String("spans", "", "span file for -trace 1 (default .bench_build/spans/<workload>-<seed>.jsonl)")
	flag.Parse()
	if !slices.Contains(workloadNames, *name) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: want -workload one of %v, -seconds positive, -trace 0 or 1\n", workloadNames)
		return 2
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *name, *seed))
	}
	out, err := bench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench: encode result:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// result is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench runs one workload end to end and returns the result line.
func bench(name string, seed int64, dur time.Duration, trace bool, spanFile string) (*result, error) {
	starts, err := timeStarts(setupReps)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	t0 := time.Now()
	st, err := startStack()
	if err != nil {
		return nil, err
	}
	starts = append(starts, time.Since(t0))
	stopped := false
	defer func() {
		if !stopped {
			_ = st.stop() // an error path already has its error to report
		}
	}()
	w, err := buildWorkload(st.engine.DB, name, seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("servebench workload=%s seed=%d seconds=%v trace=%v nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		name, seed, dur.Seconds(), trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	t0 = time.Now()
	or := buildOracle(st.engine, w.Distinct, oracleWorkers)
	fmt.Printf("oracle: %d distinct requests in %.2fs\n", len(w.Distinct), time.Since(t0).Seconds())
	l, err := newLoader(st, or, w.Distinct)
	if err != nil {
		return nil, err
	}
	defer l.close()
	warm := l.run(w.Distinct, 0, len(w.Distinct), 0)
	fmt.Printf("warm-up: attempted=%d failed=%d wrong=%d\n", warm.Attempted, warm.failed(), warm.Wrong)

	loadDur := dur
	if trace {
		loadDur = dur / 2
	}
	reg := st.engine.Registry()
	before := reg.Snapshot()
	res := l.run(w.Stream, loadDur, w.Window, w.InvalidateEvery)
	after := reg.Snapshot()
	e2e := endToEnd(res, w.Window)
	fmt.Printf("requests: attempted=%d completed=%d failed=%d (transport=%d non200=%d wrong=%d) slo_miss=%d\n",
		res.Attempted, res.completed(), res.failed(), res.Transport, res.Non200, res.Wrong, res.SLOMiss)
	lat := msOf(res.latencies())
	fmt.Printf("samples: %d latencies, %d beyond p99, in %d windows of %d requests; wall=%.2fs (overall %.1f req/s, %.4f cpu ms/req)\n",
		len(lat), beyond(lat, quantile(lat, 0.99)), len(res.Samples)/w.Window, w.Window,
		res.Wall.Seconds(), float64(res.completed())/res.Wall.Seconds(), float64(res.CPU)/1e6/float64(res.completed()))
	// The heap is measured without the run's latency samples, whose
	// size follows the request count rather than the server's state.
	res.Samples, lat = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e2e = append(e2e, named{"heap_mb", float64(ms.HeapInuse) / 1e6, "MB"})
	if !trace {
		stopped = true
		if err := st.stop(); err != nil {
			return nil, fmt.Errorf("stop stack: %w", err)
		}
		more, err := timeStarts(setupReps)
		if err != nil {
			return nil, err
		}
		starts = append(starts, more...)
	}
	secs := make([]float64, len(starts))
	for i, d := range starts {
		secs[i] = d.Seconds()
	}
	e2e = append([]named{{"setup_s", quantile(secs, 0.5), "s"}}, e2e...)
	printMetrics("e2e", e2e)
	if res.FirstWrong != "" {
		fmt.Printf("first wrong answer: %s\n", res.FirstWrong)
	}
	out := &result{
		Correct:   res.failed() == 0 && warm.failed() == 0,
		Attempted: res.Attempted,
		Failed:    res.failed(),
		Metrics:   map[string]metric{},
	}
	if !trace {
		for _, m := range e2e {
			out.Metrics[m.name] = metric{m.value, m.unit}
		}
		return out, nil
	}

	rp := &replay{st: st, rec: newRecorder(), ctx: context.Background(), w: w, l: l}
	if err := rp.run(dur - loadDur); err != nil {
		return nil, err
	}
	stopped = true
	if err := st.stop(); err != nil {
		return nil, fmt.Errorf("stop stack: %w", err)
	}
	rp.rec.finish()
	if err := writeSpans(rp.rec, spanFile); err != nil {
		return nil, err
	}
	layers := perLayer(rp, res, after.Sub(before), after)
	printMetrics("layer", layers)
	fmt.Printf("replay: warm=%d exec=%d shard=%d cold=%d requests, %d spans in %s\n",
		rp.nWarm, rp.nExec, rp.nShard, rp.nCold, len(rp.rec.spans), spanFile)
	for _, m := range layers {
		out.Metrics[m.name] = metric{m.value, m.unit}
	}
	return out, nil
}

// writeSpans writes the replay's spans as JSON lines to path.
func writeSpans(rec *recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := rec.write(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// commit is the VCS revision the binary was built from, "unknown" when
// it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
