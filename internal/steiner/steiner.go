// Package steiner computes group Steiner trees on data graphs — the
// "results as trees" semantics of slide 30. The exact algorithm is the
// dynamic program over (vertex, keyword-subset) states of DPBF (Ding et al.
// ICDE'07): optimal for the top-1 group Steiner tree and tractable for a
// fixed number of keywords (the problem is NP-hard in general, slide 112).
package steiner

import (
	"container/heap"
	"context"
	"sort"

	"kwsearch/internal/datagraph"
	"kwsearch/internal/resilience"
)

// Tree is a Steiner tree: a root, the undirected edges chosen, and the
// total edge cost.
type Tree struct {
	Root  datagraph.NodeID
	Edges [][2]datagraph.NodeID
	Cost  float64
}

// Nodes returns the distinct nodes of the tree, sorted.
func (t *Tree) Nodes() []datagraph.NodeID {
	seen := map[datagraph.NodeID]bool{t.Root: true}
	for _, e := range t.Edges {
		seen[e[0]] = true
		seen[e[1]] = true
	}
	out := make([]datagraph.NodeID, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// state is a DP state: the best-known tree rooted at node covering mask.
type state struct {
	node datagraph.NodeID
	mask uint32
}

type entry struct {
	st   state
	cost float64
}

type entryHeap []entry

func (h entryHeap) Len() int            { return len(h) }
func (h entryHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h entryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x interface{}) { *h = append(*h, x.(entry)) }
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// provenance records how a state was reached, for tree reconstruction.
type provenance struct {
	// kind: 0 seed, 1 edge growth from (child,mask), 2 merge of
	// (node,maskA) and (node,maskB).
	kind  uint8
	child datagraph.NodeID
	maskA uint32
	maskB uint32
}

// GroupSteiner returns the minimum-cost tree connecting at least one node
// from every group (the Group Steiner Tree, Li et al. WWW'01). ok is false
// when no connecting tree exists or groups is empty/has an empty group.
// Complexity is O(3^l·n + 2^l·(n log n + m)) for l groups — exact for the
// small l keyword queries have.
func GroupSteiner(g *datagraph.Graph, groups [][]datagraph.NodeID) (*Tree, bool) {
	t, ok, _ := GroupSteinerCtx(context.Background(), g, groups)
	return t, ok
}

// MaxGroups is the most keyword groups GroupSteinerCtx searches: the
// dynamic program keeps a state per (vertex, group subset) in a uint32
// mask, and its 2^l subsets per vertex make more groups intractable, so
// beyond MaxGroups it reports no tree. Callers bound queries to it (core
// rejects longer Steiner queries with ErrBadQuery rather than answer
// "no result").
const MaxGroups = 20

// steinerCtxCheckStride is how many heap pops run between cancellation
// checks in GroupSteinerCtx.
const steinerCtxCheckStride = 64

// GroupSteinerCtx is GroupSteiner with cancellation and fault injection
// (resilience.StageSteinerPop) checked every steinerCtxCheckStride heap
// pops. A cancelled search returns (nil, false) with ctx's error: the
// tree is exact or absent, never approximate, so there is no meaningful
// partial answer to salvage.
func GroupSteinerCtx(ctx context.Context, g *datagraph.Graph, groups [][]datagraph.NodeID) (*Tree, bool, error) {
	inj := resilience.From(ctx)
	l := len(groups)
	if l == 0 || l > MaxGroups {
		return nil, false, nil
	}
	for _, grp := range groups {
		if len(grp) == 0 {
			return nil, false, nil
		}
	}
	full := (uint32(1) << uint(l)) - 1

	cost := map[state]float64{}
	prov := map[state]provenance{}
	h := &entryHeap{}

	relax := func(st state, c float64, p provenance) {
		if cur, ok := cost[st]; !ok || c < cur {
			cost[st] = c
			prov[st] = p
			heap.Push(h, entry{st: st, cost: c})
		}
	}

	for i, grp := range groups {
		for _, n := range grp {
			relax(state{node: n, mask: 1 << uint(i)}, 0, provenance{kind: 0})
		}
	}

	// maskStates indexes settled states by node for the merge transition.
	settled := map[state]bool{}
	byNode := map[datagraph.NodeID][]uint32{}

	for pops := 0; h.Len() > 0; pops++ {
		if pops%steinerCtxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
			if err := inj.At(ctx, resilience.StageSteinerPop); err != nil {
				return nil, false, err
			}
		}
		e := heap.Pop(h).(entry)
		if settled[e.st] || e.cost > cost[e.st] {
			continue
		}
		settled[e.st] = true
		if e.st.mask == full {
			return reconstruct(e.st, cost, prov), true, nil
		}
		// Edge growth: lift the tree to a neighbour.
		for _, edge := range g.Neighbors(e.st.node) {
			relax(state{node: edge.To, mask: e.st.mask}, e.cost+edge.Weight,
				provenance{kind: 1, child: e.st.node, maskA: e.st.mask})
		}
		// Tree merge: combine with settled disjoint masks at this node.
		for _, other := range byNode[e.st.node] {
			if other&e.st.mask != 0 {
				continue
			}
			merged := state{node: e.st.node, mask: e.st.mask | other}
			relax(merged, e.cost+cost[state{node: e.st.node, mask: other}],
				provenance{kind: 2, maskA: e.st.mask, maskB: other})
		}
		byNode[e.st.node] = append(byNode[e.st.node], e.st.mask)
	}
	return nil, false, nil
}

func reconstruct(goal state, cost map[state]float64, prov map[state]provenance) *Tree {
	t := &Tree{Root: goal.node, Cost: cost[goal]}
	var walk func(st state)
	walk = func(st state) {
		p := prov[st]
		switch p.kind {
		case 0:
			return
		case 1:
			t.Edges = append(t.Edges, [2]datagraph.NodeID{st.node, p.child})
			walk(state{node: p.child, mask: p.maskA})
		case 2:
			walk(state{node: st.node, mask: p.maskA})
			walk(state{node: st.node, mask: p.maskB})
		}
	}
	walk(goal)
	return t
}

// SteinerCost returns the cost of the minimum tree spanning the given
// terminal nodes exactly (each terminal its own group) — the classic
// Steiner tree the slide-30 example contrasts with the group variant.
func SteinerCost(g *datagraph.Graph, terminals []datagraph.NodeID) (float64, bool) {
	groups := make([][]datagraph.NodeID, len(terminals))
	for i, t := range terminals {
		groups[i] = []datagraph.NodeID{t}
	}
	t, ok := GroupSteiner(g, groups)
	if !ok {
		return 0, false
	}
	return t.Cost, true
}
