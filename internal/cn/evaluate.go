package cn

import (
	"context"

	"kwsearch/internal/invindex"
	"kwsearch/internal/obs"
	"kwsearch/internal/relstore"
)

// Result is one joining tree of tuples produced by a CN: Tuples[i] is bound
// to CN node i. Score is the monotone IR-style score of Hristidis et al.
// VLDB'03 (sum of tuple scores normalized by CN size).
type Result struct {
	CN     *CN
	Tuples []*relstore.Tuple
	Score  float64
}

// Evaluator executes candidate networks against a database. All binding
// state — the per-relation keyword (R^Q) and free (R^{}) tuple sets,
// term masks, tuple scores and join-column lookups — comes from its
// BindSource, so the same evaluation machinery runs over a one-shot
// index-driven binding (NewEvaluator), the full-scan reference binding
// (NewScanEvaluator) or a Binding served by the shared generation-aware
// Binder (NewEvaluatorFrom).
type Evaluator struct {
	DB    *relstore.DB
	Index *invindex.Index
	Terms []string

	src BindSource
	// keep, when non-nil, restricts evaluation to results whose owner
	// tuple (CN node 0's binding) it admits; see Restrict in partition.go.
	keep Partition
}

// NewEvaluator prepares an evaluator for the given query terms
// (normalized through the shared tokenizer), binding them through the
// index in O(matched tuples) without a shared cache.
func NewEvaluator(db *relstore.DB, ix *invindex.Index, terms []string) *Evaluator {
	return NewEvaluatorTraced(db, ix, terms, nil)
}

// NewEvaluatorTraced is NewEvaluator with the binding work recorded as
// child spans of sp (the caller's "bind" span); see Binder.BindTraced
// for the span split. A nil sp costs nothing.
func NewEvaluatorTraced(db *relstore.DB, ix *invindex.Index, terms []string, sp *obs.Span) *Evaluator {
	return NewEvaluatorFrom(db, ix, bindTerms(db, ix, normalizeTerms(terms), nil, sp))
}

// NewScanEvaluator prepares an evaluator over the full-scan reference
// binding (NewScanBinding) — the oracle the index-driven paths are
// asserted byte-identical against.
func NewScanEvaluator(db *relstore.DB, ix *invindex.Index, terms []string) *Evaluator {
	return NewEvaluatorFrom(db, ix, NewScanBinding(db, ix, terms))
}

// NewEvaluatorFrom wraps an existing binding source — the constructor
// exec.TopK and core.Engine use to consume the shared Binder.
func NewEvaluatorFrom(db *relstore.DB, ix *invindex.Index, src BindSource) *Evaluator {
	return &Evaluator{DB: db, Index: ix, Terms: src.Terms(), src: src}
}

// Source returns the evaluator's binding source.
func (ev *Evaluator) Source() BindSource { return ev.src }

// KeywordTables returns the tables with a non-empty R^Q, sorted — the input
// Enumerate needs.
func (ev *Evaluator) KeywordTables() []string { return ev.src.KeywordTables() }

// KeywordSet returns R^Q for a table.
func (ev *Evaluator) KeywordSet(table string) []*relstore.Tuple { return ev.src.KeywordSet(table) }

// FreeSet returns R^{} (tuples matching no query term) for a table.
func (ev *Evaluator) FreeSet(table string) []*relstore.Tuple { return ev.src.FreeSet(table) }

// TupleScore is the IR score of one tuple for the query (exactly 0 for
// tuples matching no term; see Binding.TupleScore).
func (ev *Evaluator) TupleScore(tp *relstore.Tuple) float64 { return ev.src.TupleScore(tp) }

// MaxNodeScore returns the best tuple score available in table's R^Q.
func (ev *Evaluator) MaxNodeScore(table string) float64 { return ev.src.MaxNodeScore(table) }

// Prewarm materializes the join lookup tables and free sets the given
// CNs will touch and seals the binding source, making subsequent
// EvaluateCN calls read-only — required before evaluating from multiple
// goroutines (the parallel package does this).
func (ev *Evaluator) Prewarm(cns []*CN) {
	_ = ev.PrewarmCtx(context.Background(), cns)
}

// PrewarmCtx is Prewarm with cancellation checked between CNs. A
// cancelled prewarm returns ctx's error; the state built so far stays
// valid (the next call resumes where this one stopped).
func (ev *Evaluator) PrewarmCtx(ctx context.Context, cns []*CN) error {
	return ev.src.Prewarm(ctx, cns)
}

// nodeSet returns the tuple set (keyword or free) for CN node n.
func (ev *Evaluator) nodeSet(n NodeSpec) []*relstore.Tuple {
	if n.Free {
		return ev.src.FreeSet(n.Table)
	}
	return ev.src.KeywordSet(n.Table)
}

// MaxTerms is the most query terms a term mask can track: masks are
// uint32 with one bit per term, so a 33rd term's bit would be silently
// dropped and results missing that term would count as total. Callers
// bound queries to it (core rejects longer CN, SPARK and ELCA queries
// with ErrBadQuery).
const MaxTerms = 32

// allTermsMask is the bitmask with one bit per query term. It panics on
// more than MaxTerms terms rather than return a mask that drops some.
func (ev *Evaluator) allTermsMask() uint32 {
	return ^uint32(0) >> (MaxTerms - len(ev.Terms))
}

// EvaluateCN produces every total and minimal joining tree of tuples for c:
// total = the bound tuples jointly contain every query term; minimal =
// removing any leaf tuple breaks coverage (the MTJNT semantics of
// DISCOVER).
func (ev *Evaluator) EvaluateCN(c *CN) []Result {
	return ev.evaluate(c, 0, nil, nil)
}

// EvaluateCNWith produces the results of c in which CN node driverIdx is
// bound to the given tuple — the primitive the pipelined top-k strategies
// use.
func (ev *Evaluator) EvaluateCNWith(c *CN, driverIdx int, tp *relstore.Tuple) []Result {
	return ev.evaluate(c, driverIdx, tp, nil)
}

// EvaluateCNBound produces the results of c under the given fixed node
// bindings (node index -> tuple). SPARK's probe step fixes every keyword
// node and asks whether connecting free tuples exist. The walk starts at
// the lowest fixed node.
func (ev *Evaluator) EvaluateCNBound(c *CN, fixed map[int]*relstore.Tuple) []Result {
	if len(fixed) == 0 {
		return ev.EvaluateCN(c)
	}
	start := len(c.Nodes)
	byNode := make([]*relstore.Tuple, len(c.Nodes))
	for n, tp := range fixed {
		byNode[n] = tp
		if n < start {
			start = n
		}
	}
	return ev.evaluate(c, start, byNode[start], byNode)
}

// walk is one recursive evaluation of a CN: the compiled join order it
// follows, the row being bound with its carried term masks, and the
// results found.
type walk struct {
	ev    *Evaluator
	c     *CN
	p     *program
	steps []step
	all   uint32
	// root, when non-nil, is the only tuple the first step binds;
	// fixed[n], when non-nil, is the only tuple node n may bind.
	root  *relstore.Tuple
	fixed []*relstore.Tuple
	// rest[i] is the union of what the keyword nodes of steps i.. can add
	// to coverage (rest[len(steps)] = 0); joins[i] is step i's join map.
	rest  []uint32
	joins []map[relstore.Value][]*relstore.Tuple
	// tps and masks are the row being bound, by CN node: masks[n] is
	// tps[n]'s term mask, read once when the membership filter admitted it.
	tps   []*relstore.Tuple
	masks []uint32
	out   []Result
	one   [1]*relstore.Tuple // the root's candidate list when it is pinned
}

// evaluate runs the join kernel over c's breadth-first order rooted at
// node start. root, when non-nil, is the only tuple start binds; fixed,
// when non-nil, pins other nodes too (indexed by node).
func (ev *Evaluator) evaluate(c *CN, start int, root *relstore.Tuple, fixed []*relstore.Tuple) []Result {
	n := len(c.Nodes)
	if n == 0 {
		return nil
	}
	p := c.program(ev.DB)
	steps := p.orders[start]
	w := walk{
		ev: ev, c: c, p: p, steps: steps, all: ev.allTermsMask(),
		root: root, fixed: fixed,
		rest:  coverable(ev.src, steps),
		joins: make([]map[relstore.Value][]*relstore.Tuple, n),
		tps:   make([]*relstore.Tuple, n),
		masks: make([]uint32, n),
	}
	for i := 1; i < n; i++ {
		w.joins[i] = ev.src.Lookup(steps[i].table, steps[i].column)
	}
	if root == nil && w.rest[0] != w.all {
		return nil // some term is in none of the keyword nodes' sets
	}
	w.bind(0, 0)
	return w.out
}

// coverable returns, for each position i of steps, the union of what the
// keyword nodes bound at positions i and later can add to a row's
// coverage: each adds at most its table's R^Q mask union, and free nodes
// add nothing (they admit only tuples matching no term). The extra final
// entry is 0. A partial binding whose cover, OR'd with the next
// position's entry, misses a term therefore has no total completion —
// the soundness argument of the coverage prune.
func coverable(src BindSource, steps []step) []uint32 {
	rest := make([]uint32, len(steps)+1)
	for i := len(steps) - 1; i >= 0; i-- {
		rest[i] = rest[i+1]
		if !steps[i].free {
			rest[i] |= src.KeywordMask(steps[i].table)
		}
	}
	return rest
}

// bind binds the node of step oi to each admissible candidate in turn and
// recurses; cover is the union of the masks bound so far.
func (w *walk) bind(oi int, cover uint32) {
	if oi == len(w.steps) {
		if r, ok := w.ev.finishRow(w.c, w.p, w.tps, w.masks); ok {
			w.out = append(w.out, r)
		}
		return
	}
	st := &w.steps[oi]
	var cands []*relstore.Tuple
	switch {
	case oi > 0:
		cands = probe(w.joins[oi], w.tps[st.parent], st.col)
	case w.root != nil:
		w.one[0] = w.root
		cands = w.one[:]
	default:
		cands = w.ev.nodeSet(w.c.Nodes[st.node])
	}
	var want *relstore.Tuple
	if oi > 0 && w.fixed != nil {
		want = w.fixed[st.node]
	}
	// The owner filter applies wherever node 0 lands in the order —
	// including fixed bindings, so a driver tuple outside the partition
	// produces nothing here.
	owned := st.node == 0 && w.ev.keep != nil
	need := w.rest[oi+1]
	for _, tp := range cands {
		mask := w.ev.src.TermMask(tp.ID)
		// The root's candidates are its tuple set already; joined nodes
		// filter the probe by membership.
		if oi > 0 && !st.admits(mask) {
			continue
		}
		if want != nil && tp.ID != want.ID {
			continue
		}
		if owned && !w.ev.keep(tp.ID) {
			continue
		}
		// Coverage prune: the nodes still unbound add at most need, so a
		// binding that cannot reach every term yields no total row.
		if cover|mask|need != w.all {
			continue
		}
		if containsTuple(w.tps, tp) {
			continue // a tuple may appear once per result tree
		}
		w.tps[st.node], w.masks[st.node] = tp, mask
		// Redundancy prune: once the row covers every term, a leaf whose
		// removal keeps the cover total stays removable in every
		// completion (an unbound leaf too: the other nodes already cover
		// everything), so no minimal row lies below.
		if next := cover | mask; next != w.all || !redundantLeaf(w.p.leaves, w.masks, w.all) {
			w.bind(oi+1, next)
		}
		w.tps[st.node], w.masks[st.node] = nil, 0
	}
}

// redundantLeaf reports whether dropping one of leaves leaves the other
// masks covering all — the minimality test, applied to a partial row
// (unbound nodes carry mask 0, and masks only grow as nodes are bound).
func redundantLeaf(leaves []int, masks []uint32, all uint32) bool {
	for _, li := range leaves {
		var rest uint32
		for i, m := range masks {
			if i != li {
				rest |= m
			}
		}
		if rest == all {
			return true
		}
	}
	return false
}

// probe returns the join candidates for a parent tuple: the join map's
// tuples whose column equals the parent's join value, in place (shared;
// callers filter while iterating and must not mutate the slice).
func probe(join map[relstore.Value][]*relstore.Tuple, parent *relstore.Tuple, col int) []*relstore.Tuple {
	if col < 0 {
		return nil
	}
	v := parent.Values[col]
	if v.IsNull() {
		return nil
	}
	return join[v]
}

// admits reports whether a tuple with term mask m belongs to st's tuple
// set: keyword nodes take matching tuples, free nodes the complement (the
// DISCOVER partition keeps CN result sets disjoint).
func (st *step) admits(m uint32) bool { return (m != 0) != st.free }

func containsTuple(binding []*relstore.Tuple, tp *relstore.Tuple) bool {
	for _, b := range binding {
		if b != nil && b.ID == tp.ID {
			return true
		}
	}
	return false
}

// finishRow checks totality (all terms covered) and minimality (every leaf
// contributes a needed term) from the row's carried term masks (masks[i]
// is tuples[i]'s), then scores the row. The only allocation is the
// result's copy of tuples.
func (ev *Evaluator) finishRow(c *CN, p *program, tuples []*relstore.Tuple, masks []uint32) (Result, bool) {
	all := ev.allTermsMask()
	var cover uint32
	for _, m := range masks {
		cover |= m
	}
	if cover != all {
		return Result{}, false
	}
	// Minimality: dropping any keyword leaf must lose some term.
	if redundantLeaf(p.leaves, masks, all) {
		return Result{}, false
	}
	score := 0.0
	for _, tp := range tuples {
		score += ev.src.TupleScore(tp)
	}
	score /= float64(len(c.Nodes))
	out := make([]*relstore.Tuple, len(tuples))
	copy(out, tuples)
	return Result{CN: c, Tuples: out, Score: score}, true
}
