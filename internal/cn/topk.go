package cn

import (
	"bytes"
	"cmp"
	"container/heap"
	"context"
	"encoding/binary"
	"slices"
	"sort"
	"strconv"
	"strings"

	"kwsearch/internal/fmath"
	"kwsearch/internal/obs"
	"kwsearch/internal/relstore"
	"kwsearch/internal/resilience"
)

// SortResults orders by descending score, breaking ties by CN size, then
// sorted tuple IDs, then the CN's canonical string, then tuple IDs in CN
// node order. The last tie-break makes the order total even for symmetric
// CNs, where two distinct bindings can use the same tuple multiset in
// swapped positions — without it, which twin survives a top-k truncation
// would depend on production order, and the serial vs parallel execution
// paths in internal/exec could not be byte-compared.
func SortResults(rs []Result) {
	slices.SortStableFunc(rs, compare)
}

// Less is SortResults' comparator as a standalone strict weak order —
// the total order every top-k list in the system follows. The sharding
// coordinator's cross-shard merge uses it directly: per-shard lists
// arrive already in this order, so merging by Less reproduces the
// sorted concatenation exactly. It does not allocate.
func Less(a, b Result) bool { return compare(a, b) < 0 }

// compare is Less as a three-way comparison: negative when a sorts
// first, positive when b does, 0 when neither does.
func compare(a, b Result) int {
	if !fmath.Eq(a.Score, b.Score) {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	if len(a.Tuples) != len(b.Tuples) {
		return cmp.Compare(len(a.Tuples), len(b.Tuples))
	}
	var bufA, bufB [keyBuf]byte
	if c := bytes.Compare(appendResultKey(bufA[:0], a), appendResultKey(bufB[:0], b)); c != 0 {
		return c
	}
	if c := strings.Compare(a.CN.Canonical(), b.CN.Canonical()); c != 0 {
		return c
	}
	for n := range a.Tuples {
		if ta, tb := a.Tuples[n].ID, b.Tuples[n].ID; ta != tb {
			return cmp.Compare(ta, tb)
		}
	}
	return 0
}

// keyBuf sizes the stack buffers of compare's sorted-ID keys: 12 bytes
// per tuple ("2147483647,") covers a CN of 10 nodes without touching the
// heap; longer keys spill over through append.
const keyBuf = 120

// sortedIDs appends r's tuple IDs to dst and sorts them.
func sortedIDs(dst []relstore.TupleID, r Result) []relstore.TupleID {
	for _, tp := range r.Tuples {
		dst = append(dst, tp.ID)
	}
	slices.Sort(dst)
	return dst
}

// appendResultKey appends r's sorted-ID key to dst: the tuple IDs in
// ascending order, each in decimal followed by a comma. Keys compare as
// byte strings (so ID 1010 sorts before 425), which is the tie order
// every top-k list has always followed.
func appendResultKey(dst []byte, r Result) []byte {
	var idBuf [keyBuf / 12]relstore.TupleID
	for _, id := range sortedIDs(idBuf[:0], r) {
		dst = strconv.AppendInt(dst, int64(id), 10)
		dst = append(dst, ',')
	}
	return dst
}

// TopKNaive evaluates every CN fully, then sorts — the baseline of
// slide 116's Discover2 comparison.
//
//lint:ignore ctx-first serial reference baseline, kept signature-stable for the E17 comparison
func TopKNaive(ev *Evaluator, cns []*CN, k int) []Result {
	var all []Result
	for _, c := range cns {
		all = append(all, ev.EvaluateCN(c)...)
	}
	SortResults(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// Bound returns an upper bound on the score any result of c can reach:
// each keyword node is bounded by the best tuple score of its R^Q, free
// nodes contribute 0, and the sum is normalized by CN size (the score is
// monotone, so the bound is sound). The Sparse strategy and the
// internal/exec worker pool both prune with it.
func (ev *Evaluator) Bound(c *CN) float64 {
	s := 0.0
	for _, n := range c.Nodes {
		if !n.Free {
			s += ev.MaxNodeScore(n.Table)
		}
	}
	return s / float64(c.Size())
}

// TopKSparse evaluates CNs in descending upper-bound order and stops as
// soon as the current k-th score dominates every unevaluated CN's bound
// (the Sparse strategy of Hristidis et al. VLDB'03).
//
//lint:ignore ctx-first serial reference baseline, kept signature-stable for the E17 comparison
func TopKSparse(ev *Evaluator, cns []*CN, k int) []Result {
	order := append([]*CN(nil), cns...)
	sort.SliceStable(order, func(i, j int) bool {
		return ev.Bound(order[i]) > ev.Bound(order[j])
	})
	var top []Result
	for _, c := range order {
		if len(top) >= k && top[k-1].Score >= ev.Bound(c) {
			break
		}
		top = append(top, ev.EvaluateCN(c)...)
		SortResults(top)
		if len(top) > k {
			top = top[:k]
		}
	}
	return top
}

// gpState is the per-CN cursor of the global pipeline: the driver node's
// tuples sorted by descending score and a position into them.
type gpState struct {
	cn      *CN
	driver  int
	tuples  []scoredTuple
	pos     int
	restMax float64 // sum of max scores of the other keyword nodes
	class   int     // dedupe class: one per distinct canonical form
}

// scoredTuple is a driver tuple with its score, read once at setup.
type scoredTuple struct {
	tp    *relstore.Tuple
	score float64
}

// driverList names a driver tuple list: a table's R^Q, restricted to
// the owned tuples when owned is set.
type driverList struct {
	table string
	owned bool
}

func (s *gpState) bound() float64 {
	if s.pos >= len(s.tuples) {
		return -1
	}
	return (s.tuples[s.pos].score + s.restMax) / float64(s.cn.Size())
}

type gpHeap []*gpState

func (h gpHeap) Len() int            { return len(h) }
func (h gpHeap) Less(i, j int) bool  { return h[i].bound() > h[j].bound() }
func (h gpHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *gpHeap) Push(x interface{}) { *h = append(*h, x.(*gpState)) }
func (h *gpHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// appendSeenKey appends the pipeline's duplicate-check key of r to dst:
// its CN's dedupe class, then its sorted tuple IDs, four bytes each. A
// twin binding of a symmetric CN — the same tuples in swapped positions
// — has the same key, so it counts as already produced.
func appendSeenKey(dst []byte, class int, r Result) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(class))
	var idBuf [keyBuf / 12]relstore.TupleID
	for _, id := range sortedIDs(idBuf[:0], r) {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	}
	return dst
}

// TopKGlobalPipeline interleaves the evaluation of all CNs: it repeatedly
// advances the CN whose next driver tuple has the highest score upper
// bound, producing only the joins needed to certify the top k (the Global
// Pipeline of Hristidis et al. VLDB'03). Requires the monotone score.
func TopKGlobalPipeline(ev *Evaluator, cns []*CN, k int) []Result {
	return TopKGlobalPipelineTraced(ev, cns, k, nil)
}

// TopKGlobalPipelineTraced is TopKGlobalPipeline recording its work onto
// sp (nil disables tracing): how many CNs entered the pipeline vs were
// pruned outright (zero bound), how many driver tuples were advanced,
// how many candidate rows the probes produced, and whether the k-th
// score certified the answer before the heap drained.
func TopKGlobalPipelineTraced(ev *Evaluator, cns []*CN, k int, sp *obs.Span) []Result {
	rs, _ := TopKGlobalPipelineCtx(context.Background(), ev, cns, k, sp)
	return rs
}

// Dominates reports a > b by a genuine margin (epsilon-safe): only then
// is dropping work bounded by b provably harmless, ties included. It is
// the one domination check behind every top-k prune and certificate.
func Dominates(a, b float64) bool {
	return a > b && !fmath.Eq(a, b)
}

// CertifiedPrefix returns the leading results whose scores strictly
// dominate bound: exactly the prefix of the full top-k an interrupted
// evaluation can still prove correct, because no unevaluated work can
// reach those scores. Results tied with bound are dropped — a remaining
// CN could produce an equal-score twin that the deterministic total
// order would rank ahead of them.
func CertifiedPrefix(rs []Result, bound float64) []Result {
	i := 0
	for i < len(rs) && Dominates(rs[i].Score, bound) {
		i++
	}
	return rs[:i]
}

// TopKGlobalPipelineCtx is the context-first Global Pipeline:
// cancellation and the fault injector (resilience.StagePipeline) are
// checked at every driver-tuple advance. When ctx ends mid-evaluation it
// returns the certified prefix of the top-k — the leading results whose
// scores strictly dominate every remaining bound — together with ctx's
// error, so callers can surface a sound partial answer.
func TopKGlobalPipelineCtx(ctx context.Context, ev *Evaluator, cns []*CN, k int, sp *obs.Span) ([]Result, error) {
	inj := resilience.From(ctx)
	var h gpHeap
	classes := map[string]int{}
	lists := map[driverList][]scoredTuple{}
	for _, c := range cns {
		kwNodes := c.KeywordNodes()
		if len(kwNodes) == 0 {
			continue
		}
		// Drive from the keyword node with the fewest tuples.
		driver := kwNodes[0]
		for _, n := range kwNodes[1:] {
			if len(ev.KeywordSet(c.Nodes[n].Table)) < len(ev.KeywordSet(c.Nodes[driver].Table)) {
				driver = n
			}
		}
		// When the driver is the owner node the partition prunes its
		// tuples up front; other drivers stay unfiltered and the owner
		// filter inside EvaluateCNWith discards foreign results. CNs
		// driven from the same list share one sorted, read-only copy.
		key := driverList{c.Nodes[driver].Table, driver == 0 && ev.Partitioned()}
		tuples, ok := lists[key]
		if !ok {
			src := ev.KeywordSet(key.table)
			if key.owned {
				src = ev.filterOwned(src)
			}
			tuples = make([]scoredTuple, len(src))
			for i, tp := range src {
				tuples[i] = scoredTuple{tp, ev.TupleScore(tp)}
			}
			slices.SortStableFunc(tuples, func(a, b scoredTuple) int { return cmp.Compare(b.score, a.score) })
			lists[key] = tuples
		}
		rest := 0.0
		for _, n := range kwNodes {
			if n != driver {
				rest += ev.MaxNodeScore(c.Nodes[n].Table)
			}
		}
		st := &gpState{cn: c, driver: driver, tuples: tuples, restMax: rest}
		if st.bound() > 0 {
			cl, ok := classes[c.Canonical()]
			if !ok {
				cl = len(classes)
				classes[c.Canonical()] = cl
			}
			st.class = cl
			h = append(h, st)
		}
	}
	heap.Init(&h)
	sp.SetAttr("cns", len(cns))
	sp.SetAttr("pipelined", h.Len())
	sp.SetAttr("pruned", len(cns)-h.Len())

	advances, produced, certified := 0, 0, false
	var top []Result
	seen := map[string]struct{}{}
	var kb [64]byte
	for h.Len() > 0 {
		st := h[0]
		b := st.bound()
		if b < 0 {
			heap.Pop(&h)
			continue
		}
		if len(top) >= k && top[k-1].Score >= b {
			certified = true
			break
		}
		err := ctx.Err()
		if err == nil {
			err = inj.At(ctx, resilience.StagePipeline)
		}
		if err != nil {
			// b is the max score any remaining work can reach, so the
			// results strictly above it are final.
			top = CertifiedPrefix(top, b)
			sp.SetAttr("driver_advances", advances)
			sp.SetAttr("produced", produced)
			sp.SetAttr("certified_early", false)
			sp.SetAttr("partial", true)
			return top, err
		}
		tp := st.tuples[st.pos].tp
		st.pos++
		advances++
		heap.Fix(&h, 0)
		added := false
		for _, r := range ev.EvaluateCNWith(st.cn, st.driver, tp) {
			// Each result binds one driver tuple and each is advanced
			// once, so only a symmetric CN's twin bindings (or a CN
			// listed twice) can repeat a (canonical, tuple set) key; the
			// first one produced wins.
			key := appendSeenKey(kb[:0], st.class, r)
			if _, dup := seen[string(key)]; dup {
				continue
			}
			seen[string(key)] = struct{}{}
			produced++
			top = append(top, r)
			added = true
		}
		if added {
			SortResults(top)
			if len(top) > k {
				top = top[:k]
			}
		}
	}
	sp.SetAttr("driver_advances", advances)
	sp.SetAttr("produced", produced)
	sp.SetAttr("certified_early", certified)
	return top, nil
}
