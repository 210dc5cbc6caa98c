package hetlb

import (
	"context"
	"time"

	"hetlb/internal/harness"
	"hetlb/internal/rng"
)

// This file exposes the replication harness: the deterministic parallel
// runner every experiment driver in this repository is built on. Use it for
// your own Monte-Carlo studies over the library — sweeps, confidence
// intervals, ratio distributions — whenever you need many independent runs
// whose aggregate must not depend on how they were scheduled.

// ReplicationOptions configures Replicate. The zero value runs on
// GOMAXPROCS workers with no deadline and no instrumentation.
type ReplicationOptions struct {
	// Parallelism bounds the number of concurrently executing
	// replications; 0 means GOMAXPROCS. The results are identical for
	// every value — parallelism is a throughput knob, never a semantic
	// one.
	Parallelism int
	// Context cancels the run early; nil means Background.
	Context context.Context
	// Timeout, when positive, bounds the whole run's wall time.
	Timeout time.Duration
	// Metrics, when non-nil, receives the harness_* instruments
	// (replications started/completed/failed, wall-time histogram).
	Metrics *MetricsRegistry
	// OnProgress, when non-nil, is called after each finished replication
	// with (completed, total). Calls are serialized but arrive in
	// completion order.
	OnProgress func(completed, total int)
	// Spans, when non-nil, collects the causal span trace of the whole
	// run: one KindReplication span per replication, with each
	// replication's runtime spans recorded into a private namespaced
	// sub-recorder (exposed as Replication.Spans) and merged in index
	// order after the pool drains — the merged trace is bit-identical for
	// every Parallelism, like the results.
	Spans *SpanTrace
	// SpanCap bounds each replication's private span ring; 0 defaults to
	// 16384.
	SpanCap int
}

// Replication is one replication's execution context: its index, its
// private deterministic RNG (the substream keyed by the experiment seed and
// the index), and the run's context for cooperative cancellation.
type Replication = harness.Rep

// Replicate executes n independent replications of fn on a bounded worker
// pool and returns their results in index order. Replication i draws all
// its randomness from a substream that is a pure function of (seed, i), so
// the returned slice is bit-identical for every Parallelism setting — run
// sequentially while debugging, saturate the machine in production, publish
// the same numbers either way.
//
// On failure Replicate cancels the remaining replications and returns the
// lowest-indexed error it observed; completed results are returned
// alongside it.
func Replicate[T any](opt ReplicationOptions, seed uint64, n int, fn func(rep *Replication) (T, error)) ([]T, error) {
	return harness.Map(harness.Options{
		Parallelism: opt.Parallelism,
		Context:     opt.Context,
		Timeout:     opt.Timeout,
		Metrics:     opt.Metrics,
		OnProgress:  opt.OnProgress,
		Spans:       opt.Spans,
		SpanCap:     opt.SpanCap,
	}, seed, n, fn)
}

// DeriveSeed deterministically mixes a base seed with a key path (for
// example an experiment id and a replication index) into a new seed. It is
// a pure function — unlike stateful seed-drawing, the result does not
// depend on derivation order, which is what makes parallel replication
// reproducible. Replicate uses it internally; it is exported for callers
// that manage their own generators.
func DeriveSeed(seed uint64, keys ...uint64) uint64 { return rng.DeriveSeed(seed, keys...) }
