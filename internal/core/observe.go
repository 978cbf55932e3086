package core

// This file is the observability surface of a query: per-query Stats,
// the span-tree Trace, the QueryObserver callback and the Response they
// travel in. The envelope (envelope.go) fills them for every pipeline
// stage (admit → clean → lookup → enumerate/expand → evaluate → rank).

import (
	"time"

	"kwsearch/internal/exec"
	"kwsearch/internal/obs"
)

// Trace is the span tree a traced query produces (see Request.Trace). It
// aliases obs.Span so callers can walk, print or JSON-encode it without
// importing internal/obs.
type Trace = obs.Span

// Stats summarizes one Query call at the engine level.
type Stats struct {
	// Semantics that actually ran, after Auto resolution.
	Semantics Semantics `json:"semantics"`
	// Terms the search executed with, after cleaning and normalization.
	Terms []string `json:"terms"`
	// Results is the number of answers returned.
	Results int `json:"results"`
	// Partial reports that the deadline expired mid-evaluation and
	// Results counts a certified prefix (CN semantics) or best-effort
	// subset (graph semantics) of the full answer.
	Partial bool `json:"partial,omitempty"`
	// Elapsed is the wall time of the whole pipeline.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Exec holds the worker-pool execution stats when the query ran
	// through internal/exec: CandidateNetworks with Workers > 1, or any
	// coordinated CN query (the shards' stats, merged).
	Exec *exec.Stats `json:"exec,omitempty"`
	// PlanSignature is the plan-cache key the query compiled under
	// (namespace + schema fingerprint + keyword→relation membership
	// signature + size bounds); "" when the query never reached the
	// enumerate stage. Slow-query exemplars carry it so latency outliers
	// can be correlated with plan-cache churn.
	PlanSignature string `json:"plan_signature,omitempty"`
	// Shards is the per-shard breakdown when the query ran through the
	// internal/shard coordinator: one entry per shard in shard order.
	// Empty on single-engine queries.
	Shards []ShardStat `json:"shards,omitempty"`
	// Merge is the coordinator's merge overhead: the wall time between
	// the slowest shard finishing and the merged response being ready.
	// Zero on single-engine queries.
	Merge time.Duration `json:"merge_ns,omitempty"`
	// Metrics is the delta of the searcher's registry over this query:
	// every counter incremented and histogram observed while it ran.
	Metrics obs.Snapshot `json:"metrics"`
}

// ShardStat is one shard's view of a coordinated query (Stats.Shards).
type ShardStat struct {
	// Shard is the shard index (0-based).
	Shard int `json:"shard"`
	// Results is how many results this shard's sub-query returned (its
	// local top-k length).
	Results int `json:"results"`
	// Pulled counts the results the k-way merge actually consumed from
	// this shard — the merge-efficiency signal (the merge stops after k
	// pops, so sum over shards ≤ k; a skewed workload pulls k from one
	// shard and 0 from the rest).
	Pulled int `json:"pulled"`
	// Partial reports this shard's answer was a certified prefix (its
	// deadline expired mid-evaluation).
	Partial bool `json:"partial,omitempty"`
	// Elapsed is this shard's wall time for its sub-query.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Exec is this shard's executor stats.
	Exec *exec.Stats `json:"exec,omitempty"`
}

// QueryObserver receives every Query's Stats and Trace as it completes.
// The trace is nil unless Request.Trace was set. Set it in
// Request.Observer; it runs on the querying goroutine.
type QueryObserver func(Stats, *Trace)

// Response bundles a query's results with its observability artifacts.
type Response struct {
	// Results are the ranked answers, as Search returns them.
	Results []Result
	// Partial reports that the query's deadline expired mid-evaluation
	// and Results holds the best answer certified by then — under CN
	// semantics a provable prefix of the full top-k, under the graph
	// semantics a best-effort subset. A partial response is a success:
	// the error alongside it is nil.
	Partial bool
	// Stats summarizes the execution.
	Stats Stats
	// Trace is the root span of the pipeline, nil unless Request.Trace.
	Trace *Trace
}
