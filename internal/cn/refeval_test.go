package cn

// The join evaluator as it stood before the compiled kernel, kept
// verbatim (identifiers prefixed "ref") as the differential reference
// kernel_test.go checks the kernel against: the recursive evaluator
// with its per-probe candidate slices and per-row leaf and mask work,
// and the level-order prefix path built on the same primitives.

import "kwsearch/internal/relstore"

func (ev *Evaluator) refEvaluateFiltered(c *CN, fixed map[int]*relstore.Tuple) []Result {
	if len(c.Nodes) == 0 {
		return nil
	}
	start := 0
	for n := range fixed {
		start = n
		break
	}
	// Order nodes BFS from start so each subsequent node joins an
	// already-bound one.
	adj := c.adjacency()
	order := []int{start}
	via := map[int]EdgeSpec{}
	parent := map[int]int{start: -1}
	for qi := 0; qi < len(order); qi++ {
		n := order[qi]
		for _, ei := range adj[n] {
			e := c.Edges[ei]
			other := e.A
			if other == n {
				other = e.B
			}
			if _, seen := parent[other]; seen {
				continue
			}
			parent[other] = n
			via[other] = e
			order = append(order, other)
		}
	}

	binding := make([]*relstore.Tuple, len(c.Nodes))
	var out []Result
	var rec func(oi int)
	rec = func(oi int) {
		if oi == len(order) {
			if r, ok := ev.refFinishRow(c, binding); ok {
				out = append(out, r)
			}
			return
		}
		node := order[oi]
		var cands []*relstore.Tuple
		if oi == 0 {
			if tp, ok := fixed[node]; ok {
				cands = []*relstore.Tuple{tp}
			} else {
				cands = ev.nodeSet(c.Nodes[node])
			}
		} else {
			cands = ev.refJoinCandidates(c, via[node], parent[node], binding[parent[node]])
			if want, ok := fixed[node]; ok {
				var kept []*relstore.Tuple
				for _, tp := range cands {
					if tp.ID == want.ID {
						kept = append(kept, tp)
					}
				}
				cands = kept
			}
		}
		if node == 0 {
			// The owner filter applies wherever node 0 lands in the BFS
			// order — including fixed bindings, so a driver tuple outside
			// the partition produces nothing here.
			cands = ev.filterOwned(cands)
		}
		for _, tp := range cands {
			if refContainsTuple(binding, tp) {
				continue // a tuple may appear once per result tree
			}
			binding[node] = tp
			rec(oi + 1)
			binding[node] = nil
		}
	}
	rec(0)
	return out
}

func refContainsTuple(binding []*relstore.Tuple, tp *relstore.Tuple) bool {
	for _, b := range binding {
		if b != nil && b.ID == tp.ID {
			return true
		}
	}
	return false
}

// refJoinCandidates returns the tuples of CN node `to` that join with tuple tp
// bound to node `from` via edge e.
func (ev *Evaluator) refJoinCandidates(c *CN, e EdgeSpec, from int, tp *relstore.Tuple) []*relstore.Tuple {
	to := e.A
	if to == from {
		to = e.B
	}
	toSpec := c.Nodes[to]
	fromTable := ev.DB.Table(c.Nodes[from].Table)

	var fromCol, toCol string
	if e.Via.From == c.Nodes[from].Table && (e.Via.To == toSpec.Table) {
		fromCol, toCol = e.Via.FromCol, e.Via.ToCol
	} else {
		fromCol, toCol = e.Via.ToCol, e.Via.FromCol
	}
	// Self-referencing edges (cite) need orientation by node position: the
	// node attached later is always EdgeSpec.B, and Via is stored from the
	// perspective of growing A->B; when from==e.B the roles reverse.
	if e.Via.From == e.Via.To {
		if from == e.A {
			fromCol, toCol = e.Via.FromCol, e.Via.ToCol
		} else {
			fromCol, toCol = e.Via.ToCol, e.Via.FromCol
		}
	}

	v := fromTable.Value(tp, fromCol)
	if v.IsNull() {
		return nil
	}
	cands := ev.src.Lookup(toSpec.Table, toCol)[v]
	if len(cands) == 0 {
		return nil
	}
	// Filter by membership in the node's tuple set: keyword nodes take
	// matching tuples, free nodes take the complement (the DISCOVER
	// partition keeps CN result sets disjoint).
	var out []*relstore.Tuple
	for _, cand := range cands {
		inKW := ev.src.TermMask(cand.ID) != 0
		if inKW != toSpec.Free {
			out = append(out, cand)
		}
	}
	return out
}

// refFinishRow checks totality (all terms covered) and minimality (every leaf
// contributes a needed term), then scores the row.
func (ev *Evaluator) refFinishRow(c *CN, binding []*relstore.Tuple) (Result, bool) {
	all := ev.allTermsMask()
	var cover uint32
	for _, tp := range binding {
		cover |= ev.src.TermMask(tp.ID)
	}
	if cover != all {
		return Result{}, false
	}
	// Minimality: dropping any keyword leaf must lose some term.
	for _, li := range c.leaves() {
		if len(c.Nodes) == 1 {
			break
		}
		var rest uint32
		for i, tp := range binding {
			if i == li {
				continue
			}
			rest |= ev.src.TermMask(tp.ID)
		}
		if rest == all {
			return Result{}, false
		}
	}
	score := 0.0
	for _, tp := range binding {
		score += ev.src.TupleScore(tp)
	}
	score /= float64(len(c.Nodes))
	tuples := make([]*relstore.Tuple, len(binding))
	copy(tuples, binding)
	return Result{CN: c, Tuples: tuples, Score: score}, true
}

// refEvaluatePrefix returns every join-consistent partial binding of the
// first n nodes of c, extending prior (bindings over the first m nodes,
// m < n; nil means start from node 0). Each returned binding is a fresh
// slice of length n with Tuples[i] bound to CN node i; bindings never
// repeat a tuple (the joining-tree constraint). Callers evaluating from
// multiple goroutines must Prewarm first, as with EvaluateCN.
func (ev *Evaluator) refEvaluatePrefix(c *CN, prior [][]*relstore.Tuple, n int) [][]*relstore.Tuple {
	if n <= 0 || n > len(c.Nodes) {
		return nil
	}
	m := 0
	bindings := prior
	if len(prior) > 0 {
		m = len(prior[0])
	}
	if m == 0 {
		bindings = nil
		// The owner filter cuts the partition here, at the root of the
		// prefix tree: every binding grown below it inherits the node-0
		// restriction (prior bindings arriving with m > 0 were already
		// filtered the same way when their first level was built).
		for _, tp := range ev.filterOwned(ev.nodeSet(c.Nodes[0])) {
			bindings = append(bindings, []*relstore.Tuple{tp})
		}
		m = 1
	}
	for j := m; j < n; j++ {
		// Edge j-1 attaches node j to an earlier node (the enumerator's
		// growth invariant); its other endpoint is the join parent.
		e := c.Edges[j-1]
		parent := e.A
		if parent == j {
			parent = e.B
		}
		var next [][]*relstore.Tuple
		for _, b := range bindings {
			for _, tp := range ev.refJoinCandidates(c, e, parent, b[parent]) {
				if refContainsTuple(b, tp) {
					continue
				}
				nb := make([]*relstore.Tuple, j+1)
				copy(nb, b)
				nb[j] = tp
				next = append(next, nb)
			}
		}
		bindings = next
		if len(bindings) == 0 {
			return nil
		}
	}
	return bindings
}

// refBindingResults filters complete bindings of c (length == len(c.Nodes),
// as produced by refEvaluatePrefix) through the totality and minimality
// checks and scores the survivors — the finishing step EvaluateCN applies
// to its own search tree. refEvaluatePrefix + refBindingResults produce exactly
// EvaluateCN's result set (possibly in a different order; SortResults
// normalizes).
func (ev *Evaluator) refBindingResults(c *CN, bindings [][]*relstore.Tuple) []Result {
	var out []Result
	for _, b := range bindings {
		if len(b) != len(c.Nodes) {
			continue
		}
		if r, ok := ev.refFinishRow(c, b); ok {
			out = append(out, r)
		}
	}
	return out
}
