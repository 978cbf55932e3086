package cn

import (
	"kwsearch/internal/relstore"
)

// A CN's program is everything about evaluating it that depends only on
// the CN's shape and the database schema, never on the query: the
// canonical string, the leaves the minimality check drops, and the join
// orders both evaluators walk, with every join column resolved to its
// position in Tuple.Values. It is built once per CN (and database) and
// memoized on the CN, so warm queries over cached plans do none of this
// work; before it existed the row loop rebuilt the leaf list for every
// candidate row and re-resolved table and column names on every probe.

// step binds one CN node during a join walk: the root step takes the
// node's tuple set, every later step probes the join map of
// (table, column) with the value at position col of the tuple already
// bound to parent.
type step struct {
	node   int
	parent int    // -1 for the root step
	col    int    // parent tuple's join column in Tuple.Values; -1 if absent
	table  string // the node's table: the join map's table
	column string // the node's join column: the join map's column
	free   bool   // the node is R^{} (admits tuples matching no term)
}

// program is the compiled form of one CN.
type program struct {
	canonical string
	// db is the database the column positions were resolved against;
	// nil while only the canonical string has been computed.
	db *relstore.DB
	// leaves are the nodes the minimality check drops one at a time;
	// empty for a single-node CN, which has nothing to drop.
	leaves []int
	// orders[s] is the breadth-first join order rooted at node s — the
	// recursive evaluator's order when node s is bound first.
	orders [][]step
	// growth is the construction order: growth[j] binds node j from the
	// earlier node edge j-1 attaches it to (the prefix evaluator's order).
	growth []step
}

// Canonical returns a string that is identical for isomorphic CNs
// (same multiset of tuple sets connected through the same foreign keys),
// regardless of construction order; see canonicalize. It is computed once
// per CN and memoized, so a CN must not be mutated after its first
// Canonical call or evaluation.
func (c *CN) Canonical() string {
	if p := c.prog.Load(); p != nil {
		return p.canonical
	}
	p := &program{canonical: c.canonicalize()}
	if c.prog.CompareAndSwap(nil, p) {
		return p.canonical
	}
	return c.prog.Load().canonical
}

// program returns c compiled against db, compiling and memoizing it on
// first use. Concurrent first uses may compile twice; both results are
// equal, and the last store wins.
func (c *CN) program(db *relstore.DB) *program {
	old := c.prog.Load()
	if old != nil && old.db == db && db != nil {
		return old
	}
	canon := ""
	if old != nil {
		canon = old.canonical
	} else {
		canon = c.canonicalize()
	}
	p := compile(c, db, canon)
	c.prog.Store(p)
	return p
}

// compile builds c's program against db.
func compile(c *CN, db *relstore.DB, canonical string) *program {
	n := len(c.Nodes)
	p := &program{canonical: canonical, db: db}
	if n > 1 {
		p.leaves = c.leaves()
	}
	adj := c.adjacency()
	p.orders = make([][]step, n)
	seen := make([]bool, n)
	for s := range p.orders {
		order := make([]step, 1, n)
		order[0] = rootStep(c, s)
		for i := range seen {
			seen[i] = false
		}
		seen[s] = true
		for qi := 0; qi < len(order); qi++ {
			from := order[qi].node
			for _, ei := range adj[from] {
				e := c.Edges[ei]
				to := e.A
				if to == from {
					to = e.B
				}
				if seen[to] {
					continue
				}
				seen[to] = true
				order = append(order, joinStep(db, c, e, from))
			}
		}
		p.orders[s] = order
	}
	if n > 0 {
		p.growth = make([]step, n)
		p.growth[0] = rootStep(c, 0)
		for j := 1; j < n && j-1 < len(c.Edges); j++ {
			// Edge j-1 attaches node j to an earlier node (the
			// enumerator's growth invariant); its other endpoint is the
			// join parent.
			e := c.Edges[j-1]
			parent := e.A
			if parent == j {
				parent = e.B
			}
			p.growth[j] = joinStep(db, c, e, parent)
		}
	}
	return p
}

func rootStep(c *CN, node int) step {
	return step{node: node, parent: -1, col: -1, table: c.Nodes[node].Table, free: c.Nodes[node].Free}
}

// joinStep resolves the step that binds the far endpoint of e from the
// already-bound node from.
func joinStep(db *relstore.DB, c *CN, e EdgeSpec, from int) step {
	to := e.A
	if to == from {
		to = e.B
	}
	toSpec := c.Nodes[to]
	var fromCol, toCol string
	if e.Via.From == c.Nodes[from].Table && e.Via.To == toSpec.Table {
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
	col := -1
	if t := db.Table(c.Nodes[from].Table); t != nil {
		col = t.ColumnIndex(fromCol)
	}
	return step{node: to, parent: from, col: col, table: toSpec.Table, column: toCol, free: toSpec.Free}
}
