package core

import (
	"context"
	"testing"

	"kwsearch/internal/dataset"
)

// TestDefaultPathQueryAllocs gates the default /query path's allocations
// (workers unset: the Global Pipeline over the compiled join kernel) on
// the DBLP hub query that used to cost the most: "www database" joins a
// conference hub of ~100 papers against a frequent title term. Before
// the kernel carried term masks with each row, the per-row leaf and
// candidate slices cost ~5.5M allocations per query; allocation counts
// are deterministic, so the bound holds on any machine.
func TestDefaultPathQueryAllocs(t *testing.T) {
	const bound = 20000
	e := NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	req := Request{Query: "www database"}
	resp, err := e.Query(context.Background(), req) // warm: binding and plan cached
	if err != nil || len(resp.Results) == 0 {
		t.Fatalf("www database: %v, %v", resp, err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := e.Query(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Errorf("warm www database: %.0f allocs per query, want at most %d", allocs, bound)
	}
}
