package main

import (
	"bufio"
	"encoding/json"
	"io"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call the replay made into a layer: a name, its
// interval relative to the recorder's epoch, the span that enclosed it
// (-1 for a root) and the replayed request it belongs to. Allocs is the
// heap-object count the call allocated.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
	Self   int64  `json:"self_ns"`
}

// recorder keeps the replay's spans in memory until they are written
// out. It is used from one goroutine.
type recorder struct {
	epoch  time.Time
	spans  []span
	sample []metrics.Sample
}

func newRecorder() *recorder {
	return &recorder{
		epoch:  time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

func (r *recorder) allocs() uint64 {
	metrics.Read(r.sample)
	return r.sample[0].Value.Uint64()
}

// start opens a span under parent (-1 for a root) and returns its id.
// The allocation counter is read before the clock, so the reading is
// not part of the interval.
func (r *recorder) start(name string, parent, req int) int {
	a := r.allocs()
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: parent, Req: req, Name: name,
		Allocs: a, Start: int64(time.Since(r.epoch)),
	})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	t := int64(time.Since(r.epoch))
	s := &r.spans[id]
	s.End = t
	s.Allocs = r.allocs() - s.Allocs
}

// timed runs f as span name under parent.
func (r *recorder) timed(name string, parent, req int, f func()) {
	id := r.start(name, parent, req)
	f()
	r.end(id)
}

func (r *recorder) dur(id int) time.Duration {
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// coverage is the part of span id's interval that the given child
// spans cover, overlaps counted once.
func (r *recorder) coverage(id int, children []int) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		iv = append(iv, [2]int64{r.spans[c].Start, r.spans[c].End})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered int64
	reach := r.spans[id].Start
	for _, in := range iv {
		lo, hi := max(in[0], reach), min(in[1], r.spans[id].End)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return time.Duration(covered)
}

// children lists each span's direct children.
func (r *recorder) children() [][]int {
	out := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], i)
		}
	}
	return out
}

// finish computes every span's self time: its duration minus the part
// its children cover.
func (r *recorder) finish() {
	kids := r.children()
	for i := range r.spans {
		r.spans[i].Self = int64(r.dur(i) - r.coverage(i, kids[i]))
	}
}

// byName returns the durations (µs) and allocation counts of every span
// called name, in recording order.
func (r *recorder) byName(name string) (us []float64, allocs []float64) {
	for i, s := range r.spans {
		if s.Name == name {
			us = append(us, float64(r.dur(i))/1e3)
			allocs = append(allocs, float64(s.Allocs))
		}
	}
	return us, allocs
}

// write emits the spans as JSON lines.
func (r *recorder) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
