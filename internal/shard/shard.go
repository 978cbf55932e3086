// Package shard presents N partitioned executors as one logical engine:
// a scatter-gather Coordinator implementing the same context-first query
// contract (core.Searcher) as a single core.Engine, so every transport
// — the HTTP server, the CLIs, the load generator — runs unchanged over
// a partitioned deployment.
//
// The coordinator runs every logical query through exactly one
// core.Envelope (admission, tracing, slowlog, metrics). Inside it, a
// candidate-network query is tokenized once, scattered to N
// exec.Executors and gathered by a k-way merge with cross-shard
// certification; every other semantics is evaluated by the base engine
// directly.
//
// The partition is logical, not physical: every executor shares the
// same relational store, inverted index, schema graph, plan cache and
// binder (all concurrency-safe and partition-agnostic), and restricts
// evaluation to the results it owns. Ownership hangs off the CN owner
// node: the enumerator grows every candidate network from a keyword
// node at position 0, so each result tree has a well-defined owner
// tuple (the one bound to node 0), and shard s owns exactly the results
// whose owner tuple hashes to s. Because every result has exactly one
// owner, the shards' result sets are disjoint and their union is the
// complete answer — the properties the cross-shard merge proof in
// DESIGN.md's sharding layer rests on.
//
// Invalidation and generation bumps route through every executor: the
// binder and plan cache are shared (one bump covers all; repeated bumps
// are harmless generation increments), while each executor's private
// posting and result caches are flushed individually.
package shard

import (
	"context"
	"fmt"

	"kwsearch/internal/cn"
	"kwsearch/internal/core"
	"kwsearch/internal/exec"
	"kwsearch/internal/obs"
	"kwsearch/internal/relstore"
)

// ShardOf maps a tuple ID to its owning shard among n via FNV-1a over
// the ID's four little-endian bytes. FNV keeps the assignment stable
// across runs and platforms (byte-identity tests and BENCH numbers
// depend on that) while decorrelating it from insertion order, which
// sequential IDs modulo n would not.
func ShardOf(id relstore.TupleID, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	v := uint32(id)
	for i := 0; i < 4; i++ {
		h ^= (v >> (8 * uint(i))) & 0xff
		h *= prime32
	}
	return int(h % uint32(n))
}

// OwnedBy returns the partition predicate of shard s among n: it admits
// the tuple IDs ShardOf assigns to s. One shard means no restriction
// (nil), making the single-shard coordinator's executor evaluate
// exactly what the base engine's executor does.
func OwnedBy(s, n int) cn.Partition {
	if n <= 1 {
		return nil
	}
	return func(id relstore.TupleID) bool { return ShardOf(id, n) == s }
}

// Options configures a Coordinator.
type Options struct {
	// Shards is the shard count (<=0 means 1).
	Shards int
	// Metrics is the coordinator's own registry, receiving its
	// envelope's metrics (query.*, admission.*, slowlog.*) for every
	// logical query. Nil gets a fresh private one. Per-shard executor
	// metrics live in each shard's own registry (see
	// Coordinator.ShardRegistry).
	Metrics *obs.Registry
	// ShardCtx, when non-nil, derives the context each shard sub-query
	// runs under — the seam tests use to arm a resilience.Injector on
	// one shard (a slow or failing shard), or expire its context,
	// without touching the others.
	ShardCtx func(ctx context.Context, shard int) context.Context
	// Workers sets each shard sub-query's default worker-pool size when
	// the request leaves Workers unset (<=0 means 1: with one goroutine
	// per shard in flight, per-shard pools of 1 keep total parallelism
	// equal to the shard count instead of multiplying by it).
	Workers int
}

// Coordinator is one logical engine over N partitioned executors.
// Construct with New; safe for concurrent Query calls. It implements
// core.Searcher: the embedded Envelope supplies admission, the slowlog
// and the registry.
type Coordinator struct {
	core.Envelope
	base  *core.Engine
	execs []*exec.Executor
	// regs[s] is executor s's private registry (ShardRegistry).
	regs     []*obs.Registry
	workers  int
	shardCtx func(context.Context, int) context.Context
}

var _ core.Searcher = (*Coordinator)(nil)

// New builds a coordinator over base with one partitioned executor per
// shard, each over the base engine's binder and plan cache. The base
// engine stays fully usable — the coordinator hands the non-CN
// semantics (spark, banks, steiner) to its evaluation unpartitioned,
// since their scoring is either non-monotone (spark's skyline) or
// graph-global, where a per-shard merge has no soundness proof.
//
// Each executor is private because the result cache's key carries no
// partition identity.
func New(base *core.Engine, opts Options) (*Coordinator, error) {
	if base == nil || base.DB == nil {
		return nil, fmt.Errorf("shard: coordinator requires a relational engine")
	}
	n := opts.Shards
	if n <= 0 {
		n = 1
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	c := &Coordinator{
		Envelope: core.NewEnvelope(reg, base.Plans),
		base:     base,
		workers:  workers,
		shardCtx: opts.ShardCtx,
	}
	for s := 0; s < n; s++ {
		sreg := obs.NewRegistry()
		c.regs = append(c.regs, sreg)
		c.execs = append(c.execs, exec.New(base.DB, base.Index, exec.Options{
			FreeTables: base.FreeTables,
			Metrics:    sreg,
			Plans:      base.Plans,
			Binder:     base.Binder,
			Partition:  OwnedBy(s, n),
		}))
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.execs) }

// Base returns the underlying unpartitioned engine.
func (c *Coordinator) Base() *core.Engine { return c.base }

// Executor returns shard s's partitioned executor.
func (c *Coordinator) Executor(s int) *exec.Executor { return c.execs[s] }

// ShardRegistry returns shard s's private metrics registry — the
// per-shard attribution surface (executor counters and cache hit rates
// for that shard alone).
func (c *Coordinator) ShardRegistry(s int) *obs.Registry { return c.regs[s] }

// SetPlanNamespace re-namespaces the shared plan cache and propagates
// the new handle to the base engine, the envelope and every shard
// executor (the cache handle is immutable; re-namespacing creates a new
// one, so each holder must be re-pointed). Call during setup, before
// concurrent queries.
func (c *Coordinator) SetPlanNamespace(ns string) {
	c.base.SetPlanNamespace(ns)
	c.Plans = c.base.Plans
	for _, x := range c.execs {
		x.SetPlans(c.Plans)
	}
}

// InvalidateCaches bumps every cache generation across the deployment:
// the shared binder and plan cache (bumped once per executor holding
// them — repeated generation bumps are harmless) and each shard's
// private posting and result caches. Call after growing the index or
// mutating the database.
func (c *Coordinator) InvalidateCaches() {
	c.base.Exec.InvalidateCaches()
	for _, x := range c.execs {
		x.InvalidateCaches()
	}
}

// InvalidateDataCaches bumps the value-dependent caches (postings,
// results, term bindings) across the deployment, keeping compiled
// plans warm — the after-data-growth path.
func (c *Coordinator) InvalidateDataCaches() {
	c.base.Exec.InvalidateDataCaches()
	for _, x := range c.execs {
		x.InvalidateDataCaches()
	}
}

// InvalidateResults bumps only the result caches across the deployment.
func (c *Coordinator) InvalidateResults() {
	c.base.Exec.InvalidateResults()
	for _, x := range c.execs {
		x.InvalidateResults()
	}
}
