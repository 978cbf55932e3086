package main

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"kwsearch/internal/cn"
	"kwsearch/internal/core"
	"kwsearch/internal/exec"
	"kwsearch/internal/server"
)

// answerRow is one ranked result reduced to what the oracle check
// compares: the raw score bits and the joined tuples, in rank order.
type answerRow struct {
	ScoreBits uint64
	Tuples    string
}

// oracle maps each distinct query text to its exec.TopKSerial answer.
// Answers do not depend on the worker count, so the text is the key.
type oracle map[string][]answerRow

// buildOracle computes the reference answer of every distinct request
// with exec.TopKSerial (full scan binding, exhaustive evaluation, no
// caches) on workers goroutines. It runs before the timed window.
func buildOracle(e *core.Engine, reqs []request, workers int) oracle {
	out := make(oracle, len(reqs))
	var mu sync.Mutex
	next := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range next {
				rows := oracleRows(e.Exec.TopKSerial(exec.Query{Terms: e.Terms(q, false)}))
				mu.Lock()
				out[q] = rows
				mu.Unlock()
			}
		}()
	}
	for _, r := range reqs {
		next <- r.Query
	}
	close(next)
	wg.Wait()
	return out
}

// oracleRows renders reference results the way the server renders its
// own (core.Result.String), keeping only the tuple list.
func oracleRows(rs []cn.Result) []answerRow {
	rows := make([]answerRow, len(rs))
	for i, r := range rs {
		text := core.Result{Score: r.Score, Tuples: r.Tuples, CN: r.CN}.String()
		rows[i] = answerRow{ScoreBits: math.Float64bits(r.Score), Tuples: tuplesOf(text)}
	}
	return rows
}

// tuplesOf extracts the joined-tuple list from a rendered CN result,
// "<score>  <table#id ⋈ ...>  via <cn>". The CN rendering is left out:
// the check is on tuples, order and score bits.
func tuplesOf(text string) string {
	_, rest, _ := strings.Cut(text, "  ")
	tuples, _, _ := strings.Cut(rest, "  via ")
	return tuples
}

// check compares a served answer with the reference: the same tuples in
// the same order with bit-identical scores. It returns "" on a match and
// the first difference otherwise.
func (o oracle) check(query string, got []server.Result) string {
	want, ok := o[query]
	if !ok {
		return "no reference answer"
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	for i, r := range got {
		switch {
		case r.Rank != i+1:
			return fmt.Sprintf("rank %d at position %d", r.Rank, i+1)
		case math.Float64bits(r.Score) != want[i].ScoreBits:
			return fmt.Sprintf("rank %d score %v, want %v", i+1, r.Score, math.Float64frombits(want[i].ScoreBits))
		case tuplesOf(r.Text) != want[i].Tuples:
			return fmt.Sprintf("rank %d tuples %q, want %q", i+1, tuplesOf(r.Text), want[i].Tuples)
		}
	}
	return ""
}
