package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"kwsearch/internal/core"
	"kwsearch/internal/dataset"
	"kwsearch/internal/exec"
	"kwsearch/internal/obs"
	"kwsearch/internal/relstore"
	"kwsearch/internal/resilience"
)

// corpusVocab is small on purpose: terms collide across tables and
// tuples, so queries hit multiple tables and produce cross-shard result
// sets with plenty of near-ties for the merge's tie-break to resolve.
var corpusVocab = []string{
	"query", "keyword", "search", "database", "join", "index",
	"graph", "rank", "tuple", "stream", "cache", "widom",
}

// randomCorpusDB builds a random bibliography-shaped database: nEnt
// entity tables (id key + text column) chained by link tables, with
// random text drawn from corpusVocab.
func randomCorpusDB(rng *rand.Rand, nEnt int) *relstore.DB {
	db := relstore.NewDB()
	for i := 0; i < nEnt; i++ {
		db.MustCreateTable(&relstore.TableSchema{
			Name: fmt.Sprintf("ent%d", i),
			Columns: []relstore.Column{
				{Name: "id", Type: relstore.KindInt},
				{Name: "txt", Type: relstore.KindString, Text: true},
			},
			Key: "id",
		})
	}
	for i := 1; i < nEnt; i++ {
		db.MustCreateTable(&relstore.TableSchema{
			Name: fmt.Sprintf("link%d", i),
			Columns: []relstore.Column{
				{Name: "a", Type: relstore.KindInt},
				{Name: "b", Type: relstore.KindInt},
			},
			ForeignKeys: []relstore.ForeignKey{
				{Column: "a", RefTable: fmt.Sprintf("ent%d", i-1), RefColumn: "id"},
				{Column: "b", RefTable: fmt.Sprintf("ent%d", i), RefColumn: "id"},
			},
		})
	}
	rows := make([]int, nEnt)
	for i := 0; i < nEnt; i++ {
		rows[i] = 5 + rng.Intn(25)
		for r := 0; r < rows[i]; r++ {
			words := make([]string, 1+rng.Intn(3))
			for w := range words {
				words[w] = corpusVocab[rng.Intn(len(corpusVocab))]
			}
			db.MustInsert(fmt.Sprintf("ent%d", i), map[string]relstore.Value{
				"id":  relstore.Int(int64(r)),
				"txt": relstore.String(strings.Join(words, " ")),
			})
		}
	}
	for i := 1; i < nEnt; i++ {
		for r := 0; r < 10+rng.Intn(30); r++ {
			db.MustInsert(fmt.Sprintf("link%d", i), map[string]relstore.Value{
				"a": relstore.Int(int64(rng.Intn(rows[i-1]))),
				"b": relstore.Int(int64(rng.Intn(rows[i]))),
			})
		}
	}
	return db
}

// renderCore serializes a response's results bit-exactly: canonical CN,
// tuple IDs in CN node order, and the raw float64 bits of the score.
// Two result lists render equal iff they are byte-identical answers.
func renderCore(results []core.Result) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.CN.Canonical())
		for _, tp := range r.Tuples {
			b.WriteByte(' ')
			b.WriteString(strconv.Itoa(int(tp.ID)))
		}
		b.WriteByte('@')
		b.WriteString(strconv.FormatUint(math.Float64bits(r.Score), 16))
		b.WriteByte('\n')
	}
	return b.String()
}

func TestShardOfCompleteAndDisjoint(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		owned := make([]int, n)
		for id := 0; id < 2000; id++ {
			s := ShardOf(relstore.TupleID(id), n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%d, %d) = %d, out of range", id, n, s)
			}
			owners := 0
			for p := 0; p < n; p++ {
				if OwnedBy(p, n)(relstore.TupleID(id)) {
					owners++
					if p != s {
						t.Fatalf("id %d: OwnedBy(%d, %d) true but ShardOf says %d", id, p, n, s)
					}
				}
			}
			if owners != 1 {
				t.Fatalf("id %d owned by %d shards of %d, want exactly 1", id, owners, n)
			}
			owned[s]++
		}
		for s, c := range owned {
			if c == 0 {
				t.Errorf("n=%d: shard %d owns no IDs out of 2000 — degenerate hash", n, s)
			}
		}
	}
	if OwnedBy(0, 1) != nil {
		t.Errorf("OwnedBy(0, 1) should be nil (no restriction)")
	}
}

// TestCoordinatorMatchesSerialRandomCorpus is the acceptance-criteria
// check: across a randomized multi-schema corpus, the coordinator's
// answer at every shard count must be byte-identical (order, score
// bits, bindings) to the 1-shard coordinator, the unsharded engine's
// pool path, and the full serial oracle.
func TestCoordinatorMatchesSerialRandomCorpus(t *testing.T) {
	const seeds = 25
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		db := randomCorpusDB(rng, 2+seed%3)
		engine := core.NewRelational(db)

		var queries []string
		for q := 0; q < 2; q++ {
			terms := make([]string, 1+rng.Intn(3))
			for i := range terms {
				terms[i] = corpusVocab[rng.Intn(len(corpusVocab))]
			}
			queries = append(queries, strings.Join(terms, " "))
		}

		coords := map[int]*Coordinator{}
		for _, n := range []int{1, 2, 4, 8} {
			c, err := New(engine, Options{Shards: n})
			if err != nil {
				t.Fatalf("seed %d: New(%d shards): %v", seed, n, err)
			}
			coords[n] = c
		}

		for _, q := range queries {
			req := core.Request{Query: q, TopK: 10, MaxCNSize: 5, Workers: 2}
			base, err := engine.Query(context.Background(), req)
			if err != nil {
				t.Fatalf("seed %d %q: base query: %v", seed, q, err)
			}
			want := renderCore(base.Results)

			serial := engine.Exec.TopKSerial(exec.Query{
				Terms: strings.Fields(q), K: 10, MaxCNSize: 5,
			})
			var sb strings.Builder
			for _, r := range serial {
				sb.WriteString(r.CN.Canonical())
				for _, tp := range r.Tuples {
					sb.WriteByte(' ')
					sb.WriteString(strconv.Itoa(int(tp.ID)))
				}
				sb.WriteByte('@')
				sb.WriteString(strconv.FormatUint(math.Float64bits(r.Score), 16))
				sb.WriteByte('\n')
			}
			if got := sb.String(); got != want {
				t.Fatalf("seed %d %q: pool path differs from serial oracle\ngot:\n%swant:\n%s", seed, q, want, got)
			}

			for _, n := range []int{1, 2, 4, 8} {
				resp, err := coords[n].Query(context.Background(), core.Request{Query: q, TopK: 10, MaxCNSize: 5})
				if err != nil {
					t.Fatalf("seed %d %q shards=%d: %v", seed, q, n, err)
				}
				if got := renderCore(resp.Results); got != want {
					t.Errorf("seed %d %q shards=%d: answer differs from single engine\ngot:\n%swant:\n%s",
						seed, q, n, got, want)
				}
				if len(resp.Stats.Shards) != n {
					t.Errorf("seed %d %q shards=%d: %d shard stats", seed, q, n, len(resp.Stats.Shards))
				}
				pulled := 0
				for _, ss := range resp.Stats.Shards {
					pulled += ss.Pulled
				}
				if pulled != len(resp.Results) {
					t.Errorf("seed %d %q shards=%d: merge pulled %d results but returned %d",
						seed, q, n, pulled, len(resp.Results))
				}
			}
		}
	}
}

// TestCoordinatorDelegatesNonCN pins the delegation path: semantics
// without a sound per-shard merge run unpartitioned on the base engine.
func TestCoordinatorDelegatesNonCN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	engine := core.NewRelational(randomCorpusDB(rng, 3))
	coord, err := New(engine, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	req := core.Request{Query: "keyword search", Semantics: core.DistinctRoot, TopK: 5}
	want, err := engine.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("delegated answer has %d results, base %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		if math.Float64bits(got.Results[i].Cost) != math.Float64bits(want.Results[i].Cost) {
			t.Errorf("result %d: cost %v != %v", i, got.Results[i].Cost, want.Results[i].Cost)
		}
	}
}

// TestCoordinatorPartialOnSlowShard is the satellite-3 e2e: one shard
// slowed past the deadline by an injector must yield a partial (not
// failed) response whose results are a byte-prefix of the full answer,
// with the slow shard attributed in the per-shard stats.
func TestCoordinatorPartialOnSlowShard(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	engine := core.NewRelational(randomCorpusDB(rng, 3))
	req := core.Request{Query: "keyword search", TopK: 10, MaxCNSize: 5}

	fast, err := New(engine, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	full, err := fast.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Results) == 0 {
		t.Fatal("corpus query returned no results; pick another seed")
	}
	fullRender := renderCore(full.Results)

	const slowShard = 1
	in := resilience.NewInjector(1).Arm(resilience.StageEval, resilience.Fault{Delay: 5 * time.Second})
	slow, err := New(engine, Options{
		Shards: 4,
		ShardCtx: func(ctx context.Context, s int) context.Context {
			if s == slowShard {
				return resilience.WithInjector(ctx, in)
			}
			return ctx
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	preq := req
	preq.Deadline = 150 * time.Millisecond
	resp, err := slow.Query(context.Background(), preq)
	if err != nil {
		t.Fatalf("slow-shard query should be partial, not failed: %v", err)
	}
	if !resp.Partial {
		t.Fatal("response not marked partial although one shard missed the deadline")
	}
	if len(resp.Stats.Shards) != 4 {
		t.Fatalf("%d shard stats, want 4", len(resp.Stats.Shards))
	}
	if !resp.Stats.Shards[slowShard].Partial {
		t.Errorf("slow shard %d not marked partial in stats", slowShard)
	}
	complete := 0
	for s, ss := range resp.Stats.Shards {
		if s != slowShard && !ss.Partial {
			complete++
		}
	}
	if complete == 0 {
		t.Error("every shard marked partial; expected the fault to hit only one")
	}
	if got := renderCore(resp.Results); !strings.HasPrefix(fullRender, got) {
		t.Errorf("partial results are not a byte-prefix of the full answer\npartial:\n%sfull:\n%s",
			got, fullRender)
	}
}

// TestCoordinatorAbsorbsShardDeadlineError is the regression test for
// the scatter-gather deadline seam: a shard whose sub-query dies with
// a deadline error before its pool could certify anything (its context
// already expired when the fan-out goroutine got to it — routine on a
// loaded box) must NOT fail the logical query. The coordinator already
// admitted it, so the engine contract makes this a mid-evaluation
// expiry: a partial response with a nil error, the dead shard absorbed
// as vacuously partial (no certificate → the certified prefix is
// empty). The shard is killed through ShardCtx with an already-expired
// context; the coordinator has no per-shard admission stage to inject
// a fault at.
func TestCoordinatorAbsorbsShardDeadlineError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	engine := core.NewRelational(randomCorpusDB(rng, 3))
	req := core.Request{Query: "keyword search", TopK: 10, MaxCNSize: 5}

	const deadShard = 2
	coord, err := New(engine, Options{
		Shards: 4,
		ShardCtx: func(ctx context.Context, s int) context.Context {
			if s == deadShard {
				expired, cancel := context.WithDeadline(ctx, time.Unix(0, 0))
				cancel() // the deadline error stands: it was set first
				return expired
			}
			return ctx
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := coord.Query(context.Background(), req)
	if err != nil {
		t.Fatalf("shard deadline error must become a partial response, got error: %v", err)
	}
	if !resp.Partial {
		t.Fatal("response not marked partial although one shard missed the deadline")
	}
	if len(resp.Results) != 0 {
		t.Fatalf("dead shard has no certificate, so the certified prefix must be empty; got %d results",
			len(resp.Results))
	}
	if len(resp.Stats.Shards) != 4 {
		t.Fatalf("%d shard stats, want 4", len(resp.Stats.Shards))
	}
	if !resp.Stats.Shards[deadShard].Partial {
		t.Errorf("dead shard %d not marked partial in stats", deadShard)
	}
	if len(resp.Stats.Terms) == 0 {
		t.Error("Stats.Terms empty; the envelope tokenizes before the scatter")
	}

	// Cancellation is not absorbed: a cancelled caller gets the error.
	// (Result caches are dropped first — a cache hit needs no evaluation
	// and would legitimately answer even a cancelled query.)
	coord.InvalidateResults()
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := coord.Query(cctx, req); err == nil {
		t.Fatal("cancelled query returned nil error")
	}
}

// TestCoordinatorTermLimit: the coordinator's envelope rejects a CN
// query with more terms than a term mask holds, exactly as a single
// engine does, and still answers at the limit.
func TestCoordinatorTermLimit(t *testing.T) {
	coord, err := New(core.NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig())), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	query := func(n int) string { return strings.Repeat("keyword ", n-1) + "sigmod" }
	if _, err := coord.Query(context.Background(), core.Request{Query: query(33)}); !errors.Is(err, core.ErrBadQuery) {
		t.Errorf("33 terms: err = %v, want ErrBadQuery", err)
	}
	for _, n := range []int{31, 32} {
		resp, err := coord.Query(context.Background(), core.Request{Query: query(n), MaxCNSize: 3})
		if err != nil {
			t.Fatalf("%d terms: %v", n, err)
		}
		if len(resp.Results) == 0 || len(resp.Results[0].Tuples) != 2 {
			t.Errorf("%d terms: top answer %v, want a conference ⋈ paper join", n, resp.Results)
		}
	}
}

// TestCoordinatorRunsOneEnvelope: a coordinated query passes through
// exactly one envelope — one latency observation and one slowlog
// exemplar for the logical query, and no envelope series at all in the
// shards' registries.
func TestCoordinatorRunsOneEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	coord, err := New(core.NewRelational(randomCorpusDB(rng, 3)), Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	coord.Admit(4, 4)
	sl := obs.NewSlowLog(8, time.Nanosecond) // every query is slow (0 disables the trigger)
	coord.SetSlowLog(sl)

	resp, err := coord.Query(context.Background(), core.Request{Query: "keyword search", TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("corpus query returned no results; pick another seed")
	}
	if got := coord.Registry().Snapshot().Histograms["query.elapsed_us"].Count; got != 1 {
		t.Errorf("coordinator recorded %d query.elapsed_us observations, want 1", got)
	}
	if got := len(sl.Entries()); got != 1 {
		t.Errorf("slowlog holds %d entries, want 1", got)
	}
	for s := 0; s < coord.Shards(); s++ {
		snap := coord.ShardRegistry(s).Snapshot()
		var names []string
		for name := range snap.Counters {
			names = append(names, name)
		}
		for name := range snap.Gauges {
			names = append(names, name)
		}
		for name := range snap.Histograms {
			names = append(names, name)
		}
		for name := range snap.Windows {
			names = append(names, name)
		}
		for name := range snap.SLOs {
			names = append(names, name)
		}
		for _, name := range names {
			if strings.HasPrefix(name, "query") || strings.HasPrefix(name, "admission.") {
				t.Errorf("shard %d registry has envelope series %q", s, name)
			}
		}
	}
}
