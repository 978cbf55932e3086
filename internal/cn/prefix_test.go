package cn

import (
	"fmt"
	"testing"

	"kwsearch/internal/dataset"
	"kwsearch/internal/invindex"
	"kwsearch/internal/schemagraph"
)

func prefixSetup(t *testing.T) (*Evaluator, []*CN) {
	t.Helper()
	db := dataset.DBLP(dataset.DefaultDBLPConfig())
	ix := invindex.FromDB(db)
	ev := NewEvaluator(db, ix, []string{"keyword", "search"})
	cns := Enumerate(schemagraph.FromDB(db), EnumerateOptions{
		MaxSize:       5,
		KeywordTables: ev.KeywordTables(),
		FreeTables:    []string{"write", "cite"},
	})
	if len(cns) == 0 {
		t.Fatal("no CNs")
	}
	return ev, cns
}

// resultSig renders a result into a canonical comparison string.
func resultSig(r Result) string {
	return fmt.Sprintf("%s|%s|%.12f", r.CN.Canonical(), appendResultKey(nil, r), r.Score)
}

func sigSet(rs []Result) map[string]int {
	m := map[string]int{}
	for _, r := range rs {
		m[resultSig(r)]++
	}
	return m
}

// TestEvaluatePrefixMatchesEvaluateCN asserts the level-order prefix
// materialization path produces exactly EvaluateCN's result multiset for
// every enumerated CN, both in one shot and when resumed from every
// intermediate prefix depth.
func TestEvaluatePrefixMatchesEvaluateCN(t *testing.T) {
	ev, cns := prefixSetup(t)
	for ci, c := range cns {
		want := sigSet(ev.EvaluateCN(c))

		// One shot: materialize the full binding set, then finish.
		full := ev.EvaluatePrefix(c, nil, len(c.Nodes))
		got := sigSet(ev.BindingResults(c, full))
		if len(got) != len(want) {
			t.Fatalf("CN %d (%s): prefix path %d distinct results, want %d", ci, c, len(got), len(want))
		}
		for sig, n := range want {
			if got[sig] != n {
				t.Fatalf("CN %d (%s): result %q count %d, want %d", ci, c, sig, got[sig], n)
			}
		}

		// Resumed: stop at every intermediate depth and continue from it,
		// as the executor's per-worker prefix cache does.
		for depth := 1; depth < len(c.Nodes); depth++ {
			mid := ev.EvaluatePrefix(c, nil, depth)
			rest := ev.EvaluatePrefix(c, mid, len(c.Nodes))
			got := sigSet(ev.BindingResults(c, rest))
			for sig, n := range want {
				if got[sig] != n {
					t.Fatalf("CN %d resumed at depth %d: result %q count %d, want %d", ci, depth, sig, got[sig], n)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("CN %d resumed at depth %d: %d results, want %d", ci, depth, len(got), len(want))
			}
		}
	}
}

// TestPrefixKeyOrderSensitive pins the property the executor's binding
// cache relies on: PrefixKey distinguishes mirrored growth orders that
// Canonical (correctly) identifies.
func TestPrefixKeyOrderSensitive(t *testing.T) {
	_, cns := prefixSetup(t)
	// Find two distinct CNs whose full canonicals differ but whose
	// size-1 prefixes start from different tables; their PrefixKeys must
	// differ even when prefix canonicals collide across mirror orders.
	keys := map[string]string{} // PrefixKey -> canonical of first prefix holder
	for _, c := range cns {
		for n := 1; n <= len(c.Nodes); n++ {
			pk := c.PrefixKey(n)
			if pk == "" {
				t.Fatalf("empty PrefixKey for %s at %d", c, n)
			}
			sub := &CN{Nodes: append([]NodeSpec(nil), c.Nodes[:n]...)}
			for _, e := range c.Edges {
				if e.A < n && e.B < n {
					sub.Edges = append(sub.Edges, e)
				}
			}
			canon := sub.Canonical()
			if prev, ok := keys[pk]; ok && prev != canon {
				t.Fatalf("PrefixKey %q maps to two canonicals: %q vs %q", pk, prev, canon)
			}
			keys[pk] = canon
		}
	}
	// Degenerate arguments.
	c := cns[0]
	if c.PrefixKey(0) != "" || c.PrefixKey(len(c.Nodes)+1) != "" {
		t.Fatal("out-of-range PrefixKey should be empty")
	}
}
