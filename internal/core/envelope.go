package core

// This file is the one query envelope of the serving path: deadline,
// root span and tail sampling, admit injection and the admission gate,
// tokenization and the term-count check, the registry delta, latency
// histograms, slowlog capture, the warn and debug lines, and the
// observer. Engine and shard.Coordinator both embed an Envelope and
// differ only in the Body they run inside it, so a logical query passes
// through exactly one envelope however it is evaluated.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"kwsearch/internal/cn"
	"kwsearch/internal/obs"
	"kwsearch/internal/plan"
	"kwsearch/internal/resilience"
	"kwsearch/internal/steiner"
)

// Body is what an Envelope wraps: a searcher's tokenizer and its
// evaluation of one admitted query.
type Body interface {
	// Terms tokenizes (and with clean set, noisy-channel cleans) the
	// query text.
	Terms(query string, clean bool) []string
	// Evaluate answers the admitted query. req carries its defaults,
	// terms are non-empty, and sp is the root span (nil when neither
	// tracing nor the slowlog asked for one). Evaluate may fill st's
	// execution fields (Exec, PlanSignature, Shards, Merge); the envelope
	// owns the rest. An error wrapping context.DeadlineExceeded
	// travelling with results makes them a partial answer.
	Evaluate(ctx context.Context, terms []string, req Request, sp *Trace, st *Stats) ([]Result, error)
}

// Envelope is the per-searcher state of the query envelope: the metrics
// registry, the admission gate, the slow-query log and the plan-cache
// handle whose namespace exemplars carry. Construct with NewEnvelope.
type Envelope struct {
	// Metrics is the searcher's metrics registry: the envelope records
	// the query.* series and the gate's admission.* series here, and an
	// engine's index, executor and caches surface their counters here
	// too. Serve it with obs.Serve for live inspection.
	Metrics *obs.Registry
	// Plans is the candidate-network plan cache, shared between the
	// serial CN path and the executors: a query's compiled CN set depends
	// only on the schema graph and the keyword→relation membership
	// signature, so warm signatures skip enumeration entirely whichever
	// path runs them. The handle's namespace (SetPlanNamespace) scopes
	// plan keys per tenant and tags slowlog exemplars. Nil on XML
	// engines.
	Plans *plan.Cache

	// gate is the admission controller, nil unless Admit installed one.
	gate *resilience.Gate
	// slowlog is the tail-sampling slow-query log, nil unless SetSlowLog
	// installed one. With it installed, every query runs a cheap trace
	// and slow/errored/shed/partial queries are retained as exemplars.
	slowlog *obs.SlowLog
}

// DefaultSLOThreshold is the default query-latency objective every
// envelope registers burn-rate gauges for: 100ms, matching the serving
// layer's default deadline scale. Re-register "query_latency" on the
// registry to tune it.
const DefaultSLOThreshold = 100 * time.Millisecond

// NewEnvelope builds an envelope over reg (which must be non-nil) and
// the plan-cache handle plans (nil without one), installing the latency
// SLO over the windowed query.latency_us series: 99% of queries under
// DefaultSLOThreshold.
func NewEnvelope(reg *obs.Registry, plans *plan.Cache) Envelope {
	_ = reg.Windowed("query.latency_us") // create the series eagerly
	reg.RegisterSLO("query_latency", obs.SLO{
		Series:    "query.latency_us",
		Threshold: float64(DefaultSLOThreshold.Microseconds()),
		Objective: 0.99,
	})
	return Envelope{Metrics: reg, Plans: plans}
}

// Registry returns the searcher's metrics registry — the method form of
// the Metrics field the Searcher seam requires.
func (v *Envelope) Registry() *obs.Registry { return v.Metrics }

// Admit installs admission control: at most limit queries run
// concurrently, at most maxQueue more wait for a slot (shedding with
// ErrOverloaded beyond that), and a queued query that outlives its
// deadline fails with ErrDeadlineExceeded. The gate's queue-depth gauge,
// wait histogram and outcome counters land in Metrics under
// "admission.*". A non-positive limit removes the gate. Call during
// setup, before concurrent queries.
func (v *Envelope) Admit(limit, maxQueue int) {
	if limit <= 0 {
		v.gate = nil
		return
	}
	v.gate = resilience.NewGate(limit, maxQueue)
	v.gate.Instrument(v.Metrics)
}

// Gate returns the admission gate, nil unless Admit installed one.
func (v *Envelope) Gate() *resilience.Gate { return v.gate }

// SetSlowLog installs (or, with nil, removes) the tail-sampling
// slow-query log: every query runs a cheap trace, and slow, errored,
// shed, partial or deadline-expired queries are retained as exemplars
// (span tree + Stats + plan signature). The log's capture counters land
// in Metrics. Call during setup, before concurrent queries; the swap is
// not synchronized.
func (v *Envelope) SetSlowLog(l *obs.SlowLog) {
	v.slowlog = l
	if l != nil {
		l.Instrument(v.Metrics)
	}
}

// SlowLog returns the slow-query log, nil unless SetSlowLog installed
// one.
func (v *Envelope) SlowLog() *obs.SlowLog { return v.slowlog }

// Run answers one logical query: it applies req's defaults, wraps body
// in the envelope, and returns the response. Cancellation and deadlines
// propagate into every evaluation stage:
//
//   - ctx cancelled → the error is returned (typically context.Canceled)
//     and any partial work is discarded;
//   - deadline expired mid-evaluation (ctx's or Request.Deadline, the
//     earlier wins) → the best answer certified so far is returned with
//     Response.Partial set and a nil error;
//   - admission control installed via Admit sheds with ErrOverloaded or
//     fails queued queries whose deadline lapses with
//     ErrDeadlineExceeded;
//   - malformed requests fail with errors matching ErrBadQuery: empty
//     after tokenization, or more terms than the semantics can track
//     (see termLimit).
//
// Run is safe for concurrent use.
func (v *Envelope) Run(ctx context.Context, req Request, body Body) (*Response, error) {
	req = req.withDefaults()
	if req.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Deadline)
		defer cancel()
	}
	start := time.Now()
	lg := obs.FromContext(ctx)

	// Tail sampling: with a slow-query log installed every query runs a
	// cheap always-on trace, so the span tree already exists if the query
	// turns out to be worth retaining. Response.Trace still honors
	// req.Trace alone — sampling never changes what the caller sees.
	var root *obs.Span
	if req.Trace || v.slowlog != nil {
		root = obs.StartSpan("query")
		root.SetAttr("semantics", req.Semantics.String())
	}

	if err := resilience.Inject(ctx, resilience.StageAdmit); err != nil {
		root.End()
		return v.fail(ctx, req, root, nil, rejectOutcome(err), resilience.AsTyped(err), start, lg)
	}
	if v.gate != nil {
		// The admit stage is part of the trace so shed queries still
		// produce a well-formed tree (root → admit) for the slowlog.
		asp := root.Child("admit")
		release, err := v.gate.Acquire(ctx)
		asp.End()
		if err != nil {
			asp.SetAttr("rejected", true)
			switch {
			case errors.Is(err, ErrOverloaded):
				v.Metrics.Counter("query.shed").Inc()
			case errors.Is(err, ErrDeadlineExceeded):
				v.Metrics.Counter("query.deadline").Inc()
			}
			root.End()
			return v.fail(ctx, req, root, nil, rejectOutcome(err), err, start, lg)
		}
		defer release()
	}

	before := v.Metrics.Snapshot()

	csp := root.Child("clean")
	terms := body.Terms(req.Query, req.Clean)
	csp.SetAttr("terms", len(terms))
	csp.SetAttr("cleaned", req.Clean)
	csp.End()
	root.SetAttr("keywords", len(terms))
	var bad error
	switch limit := termLimit(req.Semantics); {
	case len(terms) == 0:
		bad = badQuery("core: empty query")
	case limit > 0 && len(terms) > limit:
		bad = badQuery(fmt.Sprintf("core: %d query terms, at most %d supported", len(terms), limit))
	}
	if bad != nil {
		root.End()
		return v.fail(ctx, req, root, nil, obs.OutcomeError, bad, start, lg)
	}

	st := Stats{Semantics: req.Semantics, Terms: terms}
	results, err := body.Evaluate(ctx, terms, req, root, &st)
	partial := false
	if err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			root.SetAttr("ctx_done", true)
			root.End()
			return v.fail(ctx, req, root, &st, obs.OutcomeError, err, start, lg)
		}
		// The deadline ran out mid-evaluation: the stages handed back
		// their certified/best-effort partials in results. Serve them.
		partial = true
	}

	st.Results = len(results)
	st.Partial = partial
	st.Elapsed = time.Since(start)
	root.SetAttr("results", len(results))
	if partial {
		root.SetAttr("ctx_done", true)
		root.SetAttr("partial", true)
	}
	root.End()
	us := float64(st.Elapsed.Microseconds())
	v.Metrics.Histogram("query.elapsed_us").Observe(us)
	v.Metrics.Windowed("query.latency_us").Observe(us)
	if partial {
		v.Metrics.Counter("query.deadline").Inc()
		v.Metrics.Counter("query.partial").Inc()
	}
	st.Metrics = v.Metrics.Snapshot().Sub(before)
	if outcome, ok := v.slowlog.Classify(st.Elapsed, false, partial); ok {
		v.capture(ctx, req, root, &st, outcome, "", st.Elapsed, lg)
	}
	if lg.Enabled(obs.LevelDebug) {
		lg.Debug("query executed",
			obs.F("keywords_hash", obs.KeywordsHash(req.Query)),
			obs.F("semantics", st.Semantics.String()),
			obs.F("results", st.Results),
			obs.F("partial", partial),
			obs.F("plan_signature", st.PlanSignature),
			obs.F("elapsed", st.Elapsed))
	}
	var trace *Trace
	if req.Trace {
		trace = root
	}
	resp := &Response{Results: results, Partial: partial, Stats: st, Trace: trace}
	if req.Observer != nil {
		req.Observer(resp.Stats, resp.Trace)
	}
	return resp, nil
}

// termLimit returns the most query terms sem answers correctly, 0 for
// no limit. CN, SPARK and ELCA track terms in uint32 masks, so a 33rd
// term's bit would be dropped and results missing it would count as
// total; the group Steiner search gives up beyond steiner.MaxGroups
// groups and would answer "no result".
func termLimit(sem Semantics) int {
	switch sem {
	case CandidateNetworks, SparkNetworks, ELCA:
		return cn.MaxTerms
	case SteinerTree:
		return steiner.MaxGroups
	}
	return 0
}

// fail ends a query that produced no response: it stamps st (when the
// query got that far) with the elapsed time, retains an exemplar with
// the already-ended root span under outcome, and returns err.
func (v *Envelope) fail(ctx context.Context, req Request, root *obs.Span, st *Stats, outcome obs.Outcome, err error, start time.Time, lg *obs.Logger) (*Response, error) {
	elapsed := time.Since(start)
	if st != nil {
		st.Elapsed = elapsed
	}
	v.capture(ctx, req, root, st, outcome, err.Error(), elapsed, lg)
	return nil, err
}

// rejectOutcome classifies an admission failure for the slowlog.
func rejectOutcome(err error) obs.Outcome {
	switch {
	case errors.Is(err, ErrOverloaded):
		return obs.OutcomeShed
	case errors.Is(err, ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return obs.OutcomeDeadline
	}
	return obs.OutcomeError
}

// capture retains one query exemplar in the slow-query log and emits
// the corresponding structured warn line. No-op without a slowlog.
func (v *Envelope) capture(ctx context.Context, req Request, root *obs.Span, st *Stats, outcome obs.Outcome, errText string, elapsed time.Duration, lg *obs.Logger) {
	if v.slowlog == nil {
		return
	}
	entry := obs.Entry{
		RequestID:    obs.RequestIDFrom(ctx),
		KeywordsHash: obs.KeywordsHash(req.Query),
		Outcome:      outcome,
		Duration:     elapsed,
		Err:          errText,
		Trace:        root,
	}
	if v.Plans != nil {
		entry.Namespace = v.Plans.Namespace()
	}
	if st != nil {
		entry.Keywords = st.Terms
		entry.PlanSignature = st.PlanSignature
		entry.Stats = *st
	}
	seq := v.slowlog.Record(entry)
	if lg.Enabled(obs.LevelWarn) {
		fields := []obs.Field{
			obs.F("slowlog_seq", seq),
			obs.F("outcome", string(outcome)),
			obs.F("keywords_hash", entry.KeywordsHash),
			obs.F("elapsed", elapsed),
		}
		if entry.RequestID != "" {
			fields = append(fields, obs.F("request_id", entry.RequestID))
		}
		if entry.Namespace != "" {
			fields = append(fields, obs.F("namespace", entry.Namespace))
		}
		if entry.PlanSignature != "" {
			fields = append(fields, obs.F("plan_signature", entry.PlanSignature))
		}
		if errText != "" {
			fields = append(fields, obs.F("error", errText))
		}
		lg.Warn("query captured in slowlog", fields...)
	}
}
