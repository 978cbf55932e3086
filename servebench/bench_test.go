package main

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"kwsearch/internal/core"
	"kwsearch/internal/dataset"
	"kwsearch/internal/server"
	"kwsearch/internal/text"
)

func dblp() *core.Engine {
	return core.NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
}

func TestRequestListsFollowSeed(t *testing.T) {
	db := dblp().DB
	for _, name := range workloadNames {
		a, err := buildWorkload(db, name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(db, name, 7)
		c, _ := buildWorkload(db, name, 8)
		if !reflect.DeepEqual(a.Stream, b.Stream) {
			t.Errorf("%s: seed 7 gave two different request lists", name)
		}
		if reflect.DeepEqual(a.Stream, c.Stream) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", name)
		}
	}
	if _, err := buildWorkload(db, "nope", 7); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWorkingSetsAgainstResultCache(t *testing.T) {
	const resultCache = 256 // exec's default result-cache size
	db := dblp().DB
	for _, tc := range []struct {
		name string
		fits bool
	}{{"hot", true}, {"refresh", true}, {"tail", false}, {"hub", false}} {
		w, err := buildWorkload(db, tc.name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if fits := len(w.Distinct) <= resultCache; fits != tc.fits {
			t.Errorf("%s: %d distinct requests, fits the %d-entry result cache = %v, want %v",
				tc.name, len(w.Distinct), resultCache, fits, tc.fits)
		}
		if len(w.Stream)%w.Window != 0 {
			t.Errorf("%s: stream of %d is not whole windows of %d", tc.name, len(w.Stream), w.Window)
		}
	}
}

func conferenceTerms(q string) int {
	n := 0
	for _, t := range text.Tokenize(q) {
		if isConference(t) {
			n++
		}
	}
	return n
}

func TestConferenceTerms(t *testing.T) {
	db := dblp().DB
	tail, _ := buildWorkload(db, "tail", 7)
	for _, r := range tail.Distinct {
		if n := conferenceTerms(r.Query); n != 0 || r.Workers != 0 {
			t.Errorf("tail %q: %d conference terms, workers %d; want 0 and unset", r.Query, n, r.Workers)
		}
	}
	hub, _ := buildWorkload(db, "hub", 7)
	for _, r := range hub.Distinct {
		if n := conferenceTerms(r.Query); n != 1 || r.Workers != 0 || len(strings.Fields(r.Query)) != 2 {
			t.Errorf("hub %q: %d conference terms, workers %d; want two terms, one a conference, workers unset", r.Query, n, r.Workers)
		}
		if strings.Contains(r.Query, "keyword") || strings.Contains(r.Query, "search") {
			t.Errorf("hub %q pairs a conference with a top-2 term", r.Query)
		}
	}
}

// served answers a query in process and renders it as the wire does.
func served(t *testing.T, e *core.Engine, q string, workers int) []server.Result {
	t.Helper()
	resp, err := e.Query(context.Background(), core.Request{Query: q, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]server.Result, len(resp.Results))
	for i, r := range resp.Results {
		out[i] = server.Result{Rank: i + 1, Score: r.Score, Text: r.String()}
	}
	return out
}

func TestOracleFlagsCorruptedAnswers(t *testing.T) {
	e := dblp()
	const q = "sigmod xml"
	or := buildOracle(e, []request{{Query: q}}, 1)
	good := served(t, e, q, 2) // the pool path matches the oracle
	if len(good) < 2 {
		t.Fatalf("%q: %d results, need two to corrupt", q, len(good))
	}
	if why := or.check(q, good); why != "" {
		t.Fatalf("correct answer flagged: %s", why)
	}
	corrupt := map[string]func([]server.Result) []server.Result{
		"score off by one ulp": func(rs []server.Result) []server.Result {
			rs[0].Score = math.Nextafter(rs[0].Score, 0)
			return rs
		},
		"two results swapped": func(rs []server.Result) []server.Result {
			rs[0].Text, rs[1].Text = rs[1].Text, rs[0].Text
			return rs
		},
		"last result dropped": func(rs []server.Result) []server.Result { return rs[:len(rs)-1] },
		"rank skipped":        func(rs []server.Result) []server.Result { rs[1].Rank = 3; return rs },
	}
	for name, f := range corrupt {
		bad := f(append([]server.Result(nil), good...))
		if or.check(q, bad) == "" {
			t.Errorf("%s: not flagged", name)
		}
	}
	if or.check("never asked", good) == "" {
		t.Error("an answer to a query without a reference passed")
	}
}

func TestRecorderSelfTime(t *testing.T) {
	r := &recorder{}
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	r.spans = []span{
		{ID: 0, Parent: -1, Name: "root", Start: ms(0), End: ms(10)},
		{ID: 1, Parent: 0, Name: "a", Start: ms(1), End: ms(4)},
		{ID: 2, Parent: 0, Name: "b", Start: ms(3), End: ms(6)}, // overlaps a by 1
		{ID: 3, Parent: 2, Name: "c", Start: ms(3), End: ms(5)},
	}
	r.finish()
	for i, want := range []time.Duration{5, 3, 1, 2} {
		if got := time.Duration(r.spans[i].Self); got != want*time.Millisecond {
			t.Errorf("%s self %v, want %v", r.spans[i].Name, got, want*time.Millisecond)
		}
	}
}

func TestCursorStopsOnWholeWindows(t *testing.T) {
	c := &cursor{window: 5, start: time.Now(), dur: 0}
	n := 0
	for {
		if _, ok := c.claim(); !ok {
			break
		}
		n++
	}
	if n != 5 {
		t.Errorf("expired cursor handed out %d positions, want one window of 5", n)
	}
}
