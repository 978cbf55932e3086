package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"kwsearch/internal/core"
	"kwsearch/internal/server"
)

// clients is the closed loop's concurrency: one client per core of the
// 2-core box the benchmark was sized on, each on its own keep-alive
// connection, each sending its next request once the last one answered.
const clients = 2

// loadResult is what one closed-loop run observed.
type loadResult struct {
	Attempted int
	Transport int // requests that got no response
	Non200    int
	Wrong     int      // 200 responses whose answer differs from the oracle
	SLOMiss   int      // failed, or slower than core.DefaultSLOThreshold
	Samples   []sample // by stream position
	// WindowCPU is, per measurement window, the process CPU time used
	// from the start of the run to the window's last answer.
	WindowCPU []time.Duration
	Wall      time.Duration
	CPU       time.Duration // process user+sys time
	Mallocs   uint64
	GCCPU     float64 // share of process CPU time spent in GC
	// FirstWrong describes the first wrong answer seen, for the report.
	FirstWrong string
}

// sample is one request's client-side latency and when its response
// ended, counted from the start of the run. answered is false for a
// transport failure, which has no latency.
type sample struct {
	lat, done time.Duration
	answered  bool
}

// latencies returns the latency of every answered request.
func (r loadResult) latencies() []time.Duration {
	var out []time.Duration
	for _, s := range r.Samples {
		if s.answered {
			out = append(out, s.lat)
		}
	}
	return out
}

func (r loadResult) failed() int    { return r.Transport + r.Non200 + r.Wrong }
func (r loadResult) completed() int { return r.Attempted - r.Transport - r.Non200 }

// cursor hands out stream positions to the clients. Once the run's time
// is up it stops at the next multiple of window, so every run serves
// whole windows, at least one.
type cursor struct {
	mu     sync.Mutex
	next   int
	window int
	start  time.Time
	dur    time.Duration
	done   bool
}

func (c *cursor) claim() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done || (c.next > 0 && c.next%c.window == 0 && time.Since(c.start) >= c.dur) {
		c.done = true
		return 0, false
	}
	c.next++
	return c.next - 1, true
}

// tally collects the clients' samples by stream position and reads the
// process CPU clock when a window's last answer arrives.
type tally struct {
	mu      sync.Mutex
	window  int
	samples []sample
	winLeft []int // by window: requests not yet answered
	winCPU  []time.Duration
}

// record stores the sample of stream position i; cpu0 is the CPU clock
// at the start of the run.
func (t *tally) record(i int, s sample, cpu0 time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.samples) <= i {
		t.samples = append(t.samples, sample{})
	}
	t.samples[i] = s
	k := i / t.window
	for len(t.winLeft) <= k {
		t.winLeft = append(t.winLeft, t.window)
		t.winCPU = append(t.winCPU, 0)
	}
	if t.winLeft[k]--; t.winLeft[k] == 0 {
		t.winCPU[k] = processCPU() - cpu0
	}
}

// loader drives one stack over HTTP with a fixed set of clients.
type loader struct {
	st     *stack
	or     oracle
	bodies map[request][]byte
	http   []*http.Client
}

func newLoader(st *stack, or oracle, reqs []request) (*loader, error) {
	l := &loader{st: st, or: or, bodies: map[request][]byte{}}
	for _, r := range reqs {
		b, err := json.Marshal(server.QueryRequest{Query: r.Query, Workers: r.Workers})
		if err != nil {
			return nil, fmt.Errorf("encode request: %w", err)
		}
		l.bodies[r] = b
	}
	for i := 0; i < clients; i++ {
		l.http = append(l.http, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}})
	}
	return l, nil
}

// close drops the clients' idle connections.
func (l *loader) close() {
	for _, c := range l.http {
		c.CloseIdleConnections()
	}
}

// send posts one request and returns its latency, status and decoded
// body. status is 0 when no response arrived; err is also set when the
// body could not be read or decoded.
func (l *loader) send(c *http.Client, r request) (time.Duration, int, *server.QueryResponse, error) {
	t0 := time.Now()
	resp, err := c.Post(l.st.url, "application/json", bytes.NewReader(l.bodies[r]))
	if err != nil {
		return 0, 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return lat, resp.StatusCode, nil, err
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return lat, resp.StatusCode, nil, fmt.Errorf("decode response: %w", err)
	}
	return lat, resp.StatusCode, &qr, nil
}

// run drives the closed loop over stream for at least dur, stopping at a
// multiple of window requests, and checks every answer against the
// oracle. invalidateEvery > 0 drops the engine's data caches before
// every invalidateEvery-th request (never before the first).
func (l *loader) run(stream []request, dur time.Duration, window, invalidateEvery int) loadResult {
	cur := &cursor{window: window, dur: dur}
	per := make([]loadResult, len(l.http))
	tl := &tally{window: window}

	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(gc)
	gc0, tot0 := gc[0].Value.Float64(), gc[1].Value.Float64()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	cpu0 := processCPU()
	cur.start = time.Now()

	var wg sync.WaitGroup
	for ci, c := range l.http {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &per[ci]
			for {
				i, ok := cur.claim()
				if !ok {
					return
				}
				if invalidateEvery > 0 && i > 0 && i%invalidateEvery == 0 {
					l.st.engine.Exec.InvalidateDataCaches()
				}
				r := stream[i%len(stream)]
				res.Attempted++
				lat, status, qr, err := l.send(c, r)
				switch {
				case status == 0:
					res.Transport++
					res.SLOMiss++
				case err != nil || status != http.StatusOK:
					res.Non200++
					res.SLOMiss++
				default:
					if why := l.or.check(r.Query, qr.Results); why != "" {
						res.Wrong++
						res.SLOMiss++
						if res.FirstWrong == "" {
							res.FirstWrong = fmt.Sprintf("%q: %s", r.Query, why)
						}
					} else if lat > core.DefaultSLOThreshold {
						res.SLOMiss++
					}
				}
				tl.record(i, sample{lat: lat, done: time.Since(cur.start), answered: status != 0}, cpu0)
			}
		}()
	}
	wg.Wait()

	out := loadResult{Wall: time.Since(cur.start), CPU: processCPU() - cpu0, Samples: tl.samples, WindowCPU: tl.winCPU}
	runtime.ReadMemStats(&ms)
	out.Mallocs = ms.Mallocs - mallocs0
	metrics.Read(gc)
	if d := gc[1].Value.Float64() - tot0; d > 0 {
		out.GCCPU = (gc[0].Value.Float64() - gc0) / d
	}
	for _, p := range per {
		out.Attempted += p.Attempted
		out.Transport += p.Transport
		out.Non200 += p.Non200
		out.Wrong += p.Wrong
		out.SLOMiss += p.SLOMiss
		if out.FirstWrong == "" {
			out.FirstWrong = p.FirstWrong
		}
	}
	return out
}

// processCPU returns the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
