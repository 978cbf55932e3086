package cn

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"kwsearch/internal/invindex"
	"kwsearch/internal/relstore"
	"kwsearch/internal/schemagraph"
)

// kernelCase is one (database, query, CN set) of the randomized corpus.
type kernelCase struct {
	label      string
	ev         *Evaluator
	cns        []*CN
	freeTables []string
}

// kernelCorpus draws the 25-schema randomized corpus the binder tests
// use: random entity/link schemas with colliding vocabulary, four
// queries each, CNs up to five nodes (the serving default).
func kernelCorpus(t *testing.T) []kernelCase {
	t.Helper()
	rng := rand.New(rand.NewSource(14))
	var out []kernelCase
	for trial := 0; trial < 25; trial++ {
		db, freeTables := randomCorpusDB(rng, 2+rng.Intn(3))
		ix := invindex.FromDB(db)
		binder := NewBinder(db, ix, BinderOptions{})
		sg := schemagraph.FromDB(db)
		for q := 0; q < 4; q++ {
			terms := make([]string, 1+rng.Intn(3))
			for i := range terms {
				terms[i] = corpusVocab[rng.Intn(len(corpusVocab))]
			}
			ev := NewEvaluatorFrom(db, ix, binder.Bind(terms))
			cns := Enumerate(sg, EnumerateOptions{
				MaxSize:       5,
				KeywordTables: ev.KeywordTables(),
				FreeTables:    freeTables,
			})
			out = append(out, kernelCase{fmt.Sprintf("trial %d %v", trial, terms), ev, cns, freeTables})
		}
	}
	return out
}

// evenOwner is the Restrict partition of the differential runs.
func evenOwner(id relstore.TupleID) bool { return id%2 == 0 }

// assertSameResults fails unless got and want hold the same results in
// the same order with bit-equal scores.
func assertSameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if g, w := renderBinderResults(got), renderBinderResults(want); g != w {
		t.Fatalf("%s: kernel differs from the reference evaluator\ngot:\n%swant:\n%s", label, g, w)
	}
}

// TestKernelMatchesReferenceEvaluator is the compiled kernel's
// differential check: over the randomized corpus, with and without a
// Restrict partition, EvaluateCN, EvaluateCNWith (every keyword node,
// every tuple of its set) and EvaluatePrefix + BindingResults (one shot
// and resumed from every depth) return exactly what the pre-kernel
// evaluator returns — same results, same order, same score bits.
func TestKernelMatchesReferenceEvaluator(t *testing.T) {
	rows := 0
	for _, kc := range kernelCorpus(t) {
		for _, part := range []struct {
			name string
			ev   *Evaluator
		}{{"whole", kc.ev}, {"even-owners", kc.ev.Restrict(evenOwner)}} {
			ev := part.ev
			for ci, c := range kc.cns {
				label := fmt.Sprintf("%s %s CN %d (%s)", kc.label, part.name, ci, c)
				want := ev.refEvaluateFiltered(c, nil)
				rows += len(want)
				assertSameResults(t, label+" EvaluateCN", ev.EvaluateCN(c), want)

				for _, kn := range c.KeywordNodes() {
					for _, tp := range ev.KeywordSet(c.Nodes[kn].Table) {
						assertSameResults(t, fmt.Sprintf("%s EvaluateCNWith(%d, #%d)", label, kn, tp.ID),
							ev.EvaluateCNWith(c, kn, tp),
							ev.refEvaluateFiltered(c, map[int]*relstore.Tuple{kn: tp}))
					}
				}

				n := len(c.Nodes)
				assertSameResults(t, label+" prefix",
					ev.BindingResults(c, ev.EvaluatePrefix(c, nil, n)),
					ev.refBindingResults(c, ev.refEvaluatePrefix(c, nil, n)))
				for d := 1; d < n; d++ {
					assertSameResults(t, fmt.Sprintf("%s prefix resumed at %d", label, d),
						ev.BindingResults(c, ev.EvaluatePrefix(c, ev.EvaluatePrefix(c, nil, d), n)),
						ev.refBindingResults(c, ev.refEvaluatePrefix(c, ev.refEvaluatePrefix(c, nil, d), n)))
				}
			}
		}
	}
	if rows == 0 {
		t.Fatal("the corpus produced no results: the comparison is vacuous")
	}
}

// prunedAt replays the kernel's two prunes along one walk order for a
// complete row (tuples by CN node) and returns the first depth at which
// they would cut it, or -1 when the row survives to finishRow.
func prunedAt(ev *Evaluator, p *program, steps []step, row []*relstore.Tuple) int {
	all := ev.allTermsMask()
	rest := coverable(ev.src, steps)
	masks := make([]uint32, len(row))
	var cover uint32
	for i, st := range steps {
		m := ev.src.TermMask(row[st.node].ID)
		if cover|m|rest[i+1] != all {
			return i // coverage prune
		}
		masks[st.node] = m
		cover |= m
		if cover == all && redundantLeaf(p.leaves, masks, all) {
			return i // redundancy prune
		}
	}
	return -1
}

// TestPrunesKeepResultRows is the prunes' soundness property: for every
// CN of the corpus and every join order the kernel can walk (one per
// start node), every row the unpruned reference search returns passes
// the coverage and redundancy prunes at every depth, so neither ever
// cuts a subtree holding a result.
func TestPrunesKeepResultRows(t *testing.T) {
	checked := 0
	for _, kc := range kernelCorpus(t) {
		ev := kc.ev
		for _, c := range kc.cns {
			p := c.program(ev.DB)
			for _, r := range ev.refEvaluateFiltered(c, nil) {
				for start, steps := range p.orders {
					if d := prunedAt(ev, p, steps, r.Tuples); d >= 0 {
						t.Fatalf("%s: %s from node %d: a prune cuts result %v at depth %d",
							kc.label, c, start, r.Tuples, d)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no result rows checked: the property is vacuous")
	}
}

// TestPrunesCut shows the prunes are not vacuous: on the corpus they
// cut join-consistent rows before their last node is bound (so the
// kernel visits fewer rows than the unpruned search), while the
// differential test shows the results stay the same.
func TestPrunesCut(t *testing.T) {
	cut := 0
	for _, kc := range kernelCorpus(t) {
		ev := kc.ev
		for _, c := range kc.cns {
			p := c.program(ev.DB)
			for _, row := range ev.EvaluatePrefix(c, nil, len(c.Nodes)) {
				if d := prunedAt(ev, p, p.orders[0], row); d >= 0 && d < len(row)-1 {
					cut++
				}
			}
		}
	}
	if cut == 0 {
		t.Fatal("the prunes never cut a partial row on the corpus")
	}
}

// TestLessTiedAllocs: breaking a score tie compares the sorted-ID keys
// in stack buffers and the memoized canonical strings, so Less never
// allocates — SortResults runs it on every tie of every top-k update.
// The tie order itself is unchanged: keys compare as decimal strings
// ("7,1010," before "7,425,"), then twins by node order.
func TestLessTiedAllocs(t *testing.T) {
	c := &CN{
		Nodes: []NodeSpec{{Table: "author"}, {Table: "paper"}},
		Edges: []EdgeSpec{{A: 0, B: 1, Via: schemagraph.Edge{From: "paper", FromCol: "aid", To: "author", ToCol: "aid"}}},
	}
	tp := func(id relstore.TupleID) *relstore.Tuple { return &relstore.Tuple{ID: id} }
	a := Result{CN: c, Tuples: []*relstore.Tuple{tp(1010), tp(7)}, Score: 1.5}
	b := Result{CN: c, Tuples: []*relstore.Tuple{tp(425), tp(7)}, Score: 1.5}
	twin := Result{CN: c, Tuples: []*relstore.Tuple{tp(7), tp(1010)}, Score: 1.5}
	for _, p := range []struct{ x, y Result }{{a, b}, {twin, a}} {
		if !Less(p.x, p.y) || Less(p.y, p.x) {
			t.Fatalf("tie order changed: Less(%v, %v) = %v", p.x.Tuples, p.y.Tuples, Less(p.x, p.y))
		}
		if allocs := testing.AllocsPerRun(100, func() { Less(p.x, p.y) }); allocs != 0 {
			t.Errorf("Less on tied results: %v allocs, want 0", allocs)
		}
	}
}

// TestBindingResultsLeavesOncePerCall: BindingResults takes the leaves
// from the CN's compiled program, once per call, and reuses one mask
// buffer across rows. Every leaves computation allocates, so a per-row
// one would show as per-row allocations: here the allocations must stay
// within one per result (its Tuples copy) plus a constant, however many
// rows are rejected.
func TestBindingResultsLeavesOncePerCall(t *testing.T) {
	checked := false
	for _, kc := range kernelCorpus(t) {
		for _, c := range kc.cns {
			if len(c.Nodes) < 3 {
				continue
			}
			rows := kc.ev.EvaluatePrefix(c, nil, len(c.Nodes))
			results := len(kc.ev.BindingResults(c, rows))
			if len(rows) < results+8 {
				continue // too few rejected rows to tell
			}
			checked = true
			allocs := testing.AllocsPerRun(5, func() { kc.ev.BindingResults(c, rows) })
			// The constant covers the mask buffer and the growth of
			// the result slice (at most bits.Len(results) appends grow it).
			if limit := float64(results + 2 + bits.Len(uint(results))); allocs > limit {
				t.Fatalf("%s %s: %v allocs over %d rows with %d results, want at most %v",
					kc.label, c, allocs, len(rows), results, limit)
			}
		}
	}
	if !checked {
		t.Fatal("no CN with enough rejected rows: the check is vacuous")
	}
}

// TestProgramConcurrentFirstUse: a CN's program is compiled lazily and
// memoized on the CN, and plan-cached CNs are shared by concurrent
// queries, so first uses race. Goroutines that each take a fresh CN
// set's first Canonical, EvaluateCN and EvaluatePrefix calls at once
// must all see the serial answers (run under -race in verify.sh).
func TestProgramConcurrentFirstUse(t *testing.T) {
	for _, kc := range kernelCorpus(t)[:8] {
		ev := kc.ev
		sg := schemagraph.FromDB(ev.DB)
		opts := EnumerateOptions{MaxSize: 4, KeywordTables: ev.KeywordTables(), FreeTables: kc.freeTables}
		want := map[string]string{}
		for _, c := range Enumerate(sg, opts) {
			want[c.Canonical()] = renderBinderResults(ev.EvaluateCN(c))
		}
		fresh := Enumerate(sg, opts)
		ev.Prewarm(fresh)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, c := range fresh {
					got := renderBinderResults(ev.EvaluateCN(c))
					ev.BindingResults(c, ev.EvaluatePrefix(c, nil, len(c.Nodes)))
					if got != want[c.Canonical()] {
						t.Errorf("%s %s: concurrent first use differs:\n%s\nwant:\n%s", kc.label, c, got, want[c.Canonical()])
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestPipelinePartitionScores: the Global Pipeline shares one sorted
// driver list per (table, owner filter) across CNs. Under each side of
// a two-way Restrict partition its results must be owned, genuine
// (rendered exactly as TopKNaive renders them under the same partition)
// and carry TopKNaive's top-k scores bit for bit. Cases whose top-k
// holds a symmetric CN's twin bindings are skipped: the pipeline keeps
// only the first twin it produces, the naive strategy keeps both.
func TestPipelinePartitionScores(t *testing.T) {
	const k = 5
	odd := func(id relstore.TupleID) bool { return !evenOwner(id) }
	checked := 0
	for _, kc := range kernelCorpus(t) {
		for _, keep := range []Partition{evenOwner, odd} {
			ev := kc.ev.Restrict(keep)
			all := TopKNaive(ev, kc.cns, 1<<30)
			genuine := map[string]bool{}
			twins := map[string]int{}
			for _, r := range all {
				genuine[renderBinderResults([]Result{r})] = true
			}
			naive := all
			if len(naive) > k {
				naive = naive[:k]
			}
			for _, r := range naive {
				twins[r.CN.Canonical()+string(appendResultKey(nil, r))]++
			}
			if len(twins) < len(naive) {
				continue
			}
			got := TopKGlobalPipeline(ev, kc.cns, k)
			if len(got) != len(naive) {
				t.Fatalf("%s: %d results, want %d", kc.label, len(got), len(naive))
			}
			for i, r := range got {
				if !keep(r.Tuples[0].ID) || !genuine[renderBinderResults([]Result{r})] {
					t.Fatalf("%s: result %v is not a result of its partition", kc.label, r.Tuples)
				}
				if math.Float64bits(r.Score) != math.Float64bits(naive[i].Score) {
					t.Fatalf("%s: score %d = %v, want %v", kc.label, i, r.Score, naive[i].Score)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no partition checked: the test is vacuous")
	}
}
