package cn

import (
	"context"
	"sort"
	"strings"

	"kwsearch/internal/invindex"
	"kwsearch/internal/obs"
	"kwsearch/internal/relstore"
	"kwsearch/internal/text"
)

// termBinding is the index-derived binding of one query term: for each
// relation with matches, the matching tuples (ascending tuple ID — the
// posting-list order) and their TF·IDF weights. It depends only on
// (term, index generation), which is what makes it shareable across
// queries in the Binder's cache.
type termBinding struct {
	rels []termRel
}

// termRel is one relation's slice of a term binding. tuples[i] weighs
// weights[i]; both are immutable once built.
type termRel struct {
	table   string
	tuples  []*relstore.Tuple
	weights []float64
}

// lookupKey addresses one join map.
type lookupKey struct {
	table, column string
}

// mergedBinding is the immutable merged product of one query's term
// bindings — everything in a Binding that depends only on (terms,
// generation), not on which CNs later execute. It is what the Binder
// caches per query term list, so a repeated query skips the merge and
// sort entirely; all maps and slices are read-only after construction.
type mergedBinding struct {
	masks      map[relstore.TupleID]uint32
	scores     map[relstore.TupleID]float64
	kwSets     map[string][]*relstore.Tuple
	maxScores  map[string]float64
	tableMasks map[string]uint32
	kwTables   []string
}

// Binding is one query's keyword→tuple binding: the R^Q sets, term
// masks, tuple scores and max-scores, built either from posting lists
// (bindTerms) or by full table scans (NewScanBinding). It implements
// BindSource; see that interface for the snapshot and sealing contract.
type Binding struct {
	db     *relstore.DB
	ix     *invindex.Index
	terms  []string
	binder *Binder // non-nil when term bindings and lookups are shared

	masks     map[relstore.TupleID]uint32
	scores    map[relstore.TupleID]float64
	kwSets    map[string][]*relstore.Tuple
	maxScores map[string]float64
	// tableMasks holds, per table, the union of its R^Q tuples' masks.
	tableMasks map[string]uint32
	kwTables   []string // sorted names of tables with a non-empty R^Q

	// freeSets and lookups memoize the lazy accessors until sealed.
	// lookups additionally caches maps fetched from the shared binder,
	// so sealed concurrent evaluation reads plain maps without locking.
	freeSets map[string][]*relstore.Tuple
	lookups  map[lookupKey]map[relstore.Value][]*relstore.Tuple
	sealed   bool

	cachedTerms, builtTerms int
}

// normalizeTerms applies the shared tokenizer normalization and drops
// empty tokens, preserving order (and duplicates — coverage masks give
// each occurrence its own bit, as the scan path always has).
func normalizeTerms(terms []string) []string {
	norm := make([]string, 0, len(terms))
	for _, t := range terms {
		if n := text.Normalize(t); n != "" {
			norm = append(norm, n)
		}
	}
	return norm
}

func newBinding(db *relstore.DB, ix *invindex.Index, norm []string, binder *Binder) *Binding {
	return &Binding{
		db:         db,
		ix:         ix,
		terms:      norm,
		binder:     binder,
		masks:      make(map[relstore.TupleID]uint32),
		scores:     make(map[relstore.TupleID]float64),
		kwSets:     make(map[string][]*relstore.Tuple),
		maxScores:  make(map[string]float64),
		tableMasks: make(map[string]uint32),
		freeSets:   make(map[string][]*relstore.Tuple),
		lookups:    make(map[lookupKey]map[relstore.Value][]*relstore.Tuple),
	}
}

// buildTermBinding derives one term's binding by walking its posting
// list once: resolve each document to its tuple (skipping documents that
// are not tuples of db) and group by relation. Postings arrive in
// ascending DocID order and relstore IDs rise with insertion, so each
// relation's slice lands in insertion order without sorting.
func buildTermBinding(db *relstore.DB, ix *invindex.Index, term string) termBinding {
	ps, ws := ix.TermWeights(term)
	var tb termBinding
	idx := make(map[string]int)
	for i, p := range ps {
		tp := db.TupleByID(relstore.TupleID(p.Doc))
		if tp == nil {
			continue
		}
		j, ok := idx[tp.Table]
		if !ok {
			j = len(tb.rels)
			idx[tp.Table] = j
			tb.rels = append(tb.rels, termRel{table: tp.Table})
		}
		tb.rels[j].tuples = append(tb.rels[j].tuples, tp)
		tb.rels[j].weights = append(tb.rels[j].weights, ws[i])
	}
	return tb
}

// bindTerms builds an index-driven Binding for the (already normalized)
// terms: per-term bindings come from binder's cache when one is given
// (built and stored on miss), then merge into the query's R^Q sets,
// masks and scores. Work is O(total postings of the query terms), never
// O(database size).
//
// The result is byte-identical to the scan path: tuple IDs rise with
// insertion order, so the ID-sorted R^Q sets equal the scan order, and
// scores accumulate per-term weights in term order — each absent term
// contributed an exact 0.0 in the scan path's Σ TFIDF, and x+0.0 == x
// for the non-negative partial sums, so skipping them preserves every
// bit.
//
// The two sub-spans of sp split the work the way traces have always
// reported it: "postings" covers fetching per-term bindings (cache
// probes + posting walks), "materialize" the merge into per-table sets.
func bindTerms(db *relstore.DB, ix *invindex.Index, norm []string, binder *Binder, sp *obs.Span) *Binding {
	// A repeat of the whole query (same normalized term list, current
	// generation) reuses the merged product outright: the binding wraps
	// the cached immutable maps with fresh lazy state.
	var mergedKey string
	if binder != nil {
		mergedKey = strings.Join(norm, "\x00")
		if mb, ok := binder.merged.Get(mergedKey); ok {
			b := newBinding(db, ix, norm, binder)
			b.masks, b.scores = mb.masks, mb.scores
			b.kwSets, b.maxScores = mb.kwSets, mb.maxScores
			b.tableMasks, b.kwTables = mb.tableMasks, mb.kwTables
			b.cachedTerms = len(norm)
			psp := sp.Child("postings")
			psp.SetAttr("terms", len(norm))
			psp.SetAttr("cached_terms", b.cachedTerms)
			psp.SetAttr("built_terms", 0)
			psp.End()
			msp := sp.Child("materialize")
			msp.SetAttr("matched_tuples", len(b.masks))
			msp.SetAttr("keyword_tables", len(b.kwTables))
			msp.End()
			return b
		}
	}

	b := newBinding(db, ix, norm, binder)
	psp := sp.Child("postings")
	tbs := make([]termBinding, len(norm))
	for i, term := range norm {
		if binder != nil {
			if tb, ok := binder.terms.Get(term); ok {
				tbs[i] = tb
				b.cachedTerms++
				continue
			}
		}
		tbs[i] = buildTermBinding(db, ix, term)
		b.builtTerms++
		if binder != nil {
			binder.terms.Put(term, tbs[i])
			binder.builds.Inc()
		}
	}
	psp.SetAttr("terms", len(norm))
	psp.SetAttr("cached_terms", b.cachedTerms)
	psp.SetAttr("built_terms", b.builtTerms)
	psp.End()

	msp := sp.Child("materialize")
	for ti, tb := range tbs {
		bit := uint32(1) << uint(ti)
		for _, r := range tb.rels {
			b.tableMasks[r.table] |= bit
			for i, tp := range r.tuples {
				if b.masks[tp.ID] == 0 {
					b.kwSets[r.table] = append(b.kwSets[r.table], tp)
				}
				b.masks[tp.ID] |= bit
				b.scores[tp.ID] += r.weights[i]
			}
		}
	}
	for table, set := range b.kwSets {
		// A tuple matching several terms was appended at its first term;
		// restore global insertion order by ID (IDs rise with insertion).
		sort.Slice(set, func(i, j int) bool { return set[i].ID < set[j].ID })
		best := 0.0
		for _, tp := range set {
			if s := b.scores[tp.ID]; s > best {
				best = s
			}
		}
		b.maxScores[table] = best
		b.kwTables = append(b.kwTables, table)
	}
	sort.Strings(b.kwTables)
	msp.SetAttr("matched_tuples", len(b.masks))
	msp.SetAttr("keyword_tables", len(b.kwTables))
	msp.End()
	if binder != nil {
		binder.merged.Put(mergedKey, &mergedBinding{
			masks: b.masks, scores: b.scores,
			kwSets: b.kwSets, maxScores: b.maxScores,
			tableMasks: b.tableMasks, kwTables: b.kwTables,
		})
	}
	return b
}

// NewScanBinding builds a Binding the pre-binder way: one full scan of
// every table, partitioning tuples into R^Q/R^{} and scoring matches
// through Index.Score. It is the reference implementation the
// index-driven path is asserted byte-identical against (and the oracle
// exec.TopKSerial evaluates with), deliberately kept as an independent
// computation path.
func NewScanBinding(db *relstore.DB, ix *invindex.Index, terms []string) *Binding {
	norm := normalizeTerms(terms)
	b := newBinding(db, ix, norm, nil)
	for ti, term := range norm {
		for _, doc := range ix.Docs(term) {
			b.masks[relstore.TupleID(doc)] |= 1 << uint(ti)
		}
	}
	for _, name := range db.TableNames() {
		t := db.Table(name)
		var kw, free []*relstore.Tuple
		for _, tp := range t.Tuples() {
			if m := b.masks[tp.ID]; m != 0 {
				kw = append(kw, tp)
				b.tableMasks[name] |= m
			} else {
				free = append(free, tp)
			}
		}
		if len(kw) > 0 {
			b.kwSets[name] = kw
			b.kwTables = append(b.kwTables, name)
		}
		b.freeSets[name] = free
		best := 0.0
		for _, tp := range kw {
			s := ix.Score(norm, invindex.DocID(tp.ID))
			b.scores[tp.ID] = s
			if s > best {
				best = s
			}
		}
		b.maxScores[name] = best
	}
	sort.Strings(b.kwTables)
	return b
}

// Terms returns the normalized query terms. Shared; do not mutate.
func (b *Binding) Terms() []string { return b.terms }

// TermsCached and TermsBuilt split the query's terms by whether their
// bindings came from the shared binder cache or were built fresh from
// posting lists (always "built" for scan and one-shot bindings).
func (b *Binding) TermsCached() int { return b.cachedTerms }

// TermsBuilt reports the terms whose bindings were built on this call.
func (b *Binding) TermsBuilt() int { return b.builtTerms }

// KeywordTables returns the tables with a non-empty R^Q, sorted.
func (b *Binding) KeywordTables() []string {
	return append([]string(nil), b.kwTables...)
}

// KeywordSet returns R^Q for a table, in insertion (ascending ID) order.
func (b *Binding) KeywordSet(table string) []*relstore.Tuple { return b.kwSets[table] }

// FreeSet returns R^{} for a table, materialized lazily: a table with no
// matching tuple reuses the table's own tuple slice (for text-less link
// tables — the common free fillers — this makes R^{} engine-lifetime
// state, not per-query work), a matched table pays one complement scan,
// memoized until the binding is sealed.
func (b *Binding) FreeSet(table string) []*relstore.Tuple {
	if fs, ok := b.freeSets[table]; ok {
		return fs
	}
	fs := b.computeFreeSet(table)
	if !b.sealed {
		b.freeSets[table] = fs
	}
	return fs
}

func (b *Binding) computeFreeSet(table string) []*relstore.Tuple {
	t := b.db.Table(table)
	if t == nil {
		return nil
	}
	if len(b.kwSets[table]) == 0 {
		return t.Tuples() // nothing matched: R^{} is the whole table
	}
	var free []*relstore.Tuple
	for _, tp := range t.Tuples() {
		if b.masks[tp.ID] == 0 {
			free = append(free, tp)
		}
	}
	return free
}

// MaxNodeScore returns the best tuple score available in table's R^Q.
func (b *Binding) MaxNodeScore(table string) float64 { return b.maxScores[table] }

// TupleScore returns the IR score of tp for the query. Matching tuples
// were scored at construction; every other tuple scores exactly 0 — a
// tuple outside all R^Q sets has TF 0 for each query term, so its
// Σ TFIDF is an exact 0.0 and nothing needs recomputing (the pre-binder
// evaluator silently re-derived that zero through the index on every
// call; assertZeroScore in the tests pins the equivalence).
func (b *Binding) TupleScore(tp *relstore.Tuple) float64 {
	return b.scores[tp.ID] // zero value is the exact score of a free tuple
}

// TermMask returns the query-term bitmask of tuple id (0 = free tuple).
func (b *Binding) TermMask(id relstore.TupleID) uint32 { return b.masks[id] }

// KeywordMask returns the union of the term masks of table's R^Q.
func (b *Binding) KeywordMask(table string) uint32 { return b.tableMasks[table] }

// Lookup returns the join map value→tuples for table.column. Maps come
// from the shared binder when one backs this binding (built once per
// engine, not per query) and are memoized locally until sealed so
// sealed concurrent evaluation never takes the binder's lock.
func (b *Binding) Lookup(table, column string) map[relstore.Value][]*relstore.Tuple {
	key := lookupKey{table, column}
	if m, ok := b.lookups[key]; ok {
		return m
	}
	var m map[relstore.Value][]*relstore.Tuple
	if b.binder != nil {
		m = b.binder.lookup(table, column)
	} else {
		m = buildLookup(b.db, table, column)
	}
	if !b.sealed {
		b.lookups[key] = m
	}
	return m
}

// buildLookup materializes the value→tuples join map for table.column.
func buildLookup(db *relstore.DB, table, column string) map[relstore.Value][]*relstore.Tuple {
	m := make(map[relstore.Value][]*relstore.Tuple)
	t := db.Table(table)
	if t == nil {
		return m
	}
	ci := t.ColumnIndex(column)
	if ci >= 0 {
		for _, tp := range t.Tuples() {
			v := tp.Values[ci]
			if !v.IsNull() {
				m[v] = append(m[v], tp)
			}
		}
	}
	return m
}

// Prewarm materializes every free set and join lookup the given CNs can
// touch, then seals the binding (see BindSource). The posting lists are
// touched too, preserving the old contract that sorts them in place
// before any concurrent reader exists.
func (b *Binding) Prewarm(ctx context.Context, cns []*CN) error {
	for _, term := range b.terms {
		b.ix.Postings(term)
	}
	for _, c := range cns {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, n := range c.Nodes {
			if n.Free {
				b.FreeSet(n.Table)
			}
		}
		for _, e := range c.Edges {
			b.Lookup(e.Via.From, e.Via.FromCol)
			b.Lookup(e.Via.To, e.Via.ToCol)
		}
	}
	b.sealed = true
	return nil
}
