// Package harness is the deterministic replication runner behind every
// experiment driver in the repository. A stochastic-scheduling evaluation is
// embarrassingly parallel — thousands of independent replications of the same
// simulation under different seeds — but parallel execution is only
// acceptable if it cannot change the numbers. The harness guarantees that by
// construction:
//
//  1. Keyed substreams, pre-split before dispatch. Replication i draws all
//     of its randomness from rng.Substream(seed, i), a pure function of the
//     experiment seed and the replication index. No replication ever reads
//     another's stream, so results are bit-identical for any worker count
//     and any completion order.
//  2. Index-addressed results. Replication i writes results[i]; aggregation
//     happens over the ordered slice after the pool drains, never in
//     completion order.
//  3. Bounded worker pool. Parallelism caps the number of in-flight
//     replications (default GOMAXPROCS); a context and an optional deadline
//     cancel the remainder of a run early.
//
// The harness also plumbs the observability layer through every run:
// replications started/completed/failed counters, a wall-time histogram, one
// KindReplication span per replication, and an optional progress callback
// for interactive front ends.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hetlb/internal/obs"
	"hetlb/internal/obs/span"
	"hetlb/internal/rng"
)

// defaultRepSpanCap bounds each replication's private span ring when
// Options.SpanCap is unset: large enough for a full chaos replication,
// small enough that pre-allocating one per in-flight replication is cheap.
const defaultRepSpanCap = 1 << 14

// Options configures a replication run. The zero value is valid: run on
// GOMAXPROCS workers with no deadline and no instrumentation.
type Options struct {
	// Parallelism bounds the number of concurrently executing replications.
	// 0 (or negative) means runtime.GOMAXPROCS(0). Parallelism 1 executes
	// the replications strictly in index order on the calling goroutine's
	// schedule — the sequential reference every other setting must match.
	Parallelism int
	// Context cancels the run early when done; nil means Background.
	// Replications that never started report context.Cause as the run
	// error; completed replications keep their results.
	Context context.Context
	// Timeout, when positive, bounds the whole run's wall time.
	Timeout time.Duration
	// Metrics, when non-nil, receives the harness_* instruments
	// (replications started/completed/failed, wall-time histogram, worker
	// gauge). Safe to share across runs: registration is idempotent and the
	// counters accumulate.
	Metrics *obs.Registry
	// OnProgress, when non-nil, is called after every finished replication
	// with the number completed so far and the total. Calls are serialized
	// but arrive in completion order, which under parallelism is not index
	// order.
	OnProgress func(completed, total int)
	// Spans, when non-nil, collects the causal span trace of the whole run.
	// Each replication records into a private sub-recorder namespaced by its
	// index (so span IDs never collide) whose root is the replication's
	// KindReplication span; after the pool drains the sub-recorders are
	// merged into Spans in index order — the merged trace is bit-identical
	// for every Parallelism, like the results.
	Spans *span.Recorder
	// SpanCap bounds each replication's private span ring; 0 defaults to
	// 16384. A replication that overflows its ring keeps the newest spans
	// and the merged trace accounts the loss in Dropped.
	SpanCap int
}

// Rep is one replication's execution context, handed to the replication
// body.
type Rep struct {
	// Index is the replication number in [0, n).
	Index int
	// RNG is the replication's private generator, derived as
	// rng.Substream(seed, Index) before dispatch. All of the replication's
	// randomness — instance generation, initial placement, engine seeds —
	// must come from it (or from streams split off it).
	RNG *rng.RNG
	// Ctx is the run's context; long replications should poll it and bail
	// out early on cancellation.
	Ctx context.Context
	// Spans is the replication's private span recorder (nil when the run
	// does not collect spans). Its Root() is the replication's span, so
	// runtimes parent their run spans to it automatically.
	Spans *span.Recorder
}

// metrics bundles the harness instruments; nil disables them with one
// branch per replication.
type metrics struct {
	started, completed, failed *obs.Counter
	wall                       *obs.Histogram
	workers                    *obs.Gauge
}

func newMetrics(r *obs.Registry) *metrics {
	if r == nil {
		return nil
	}
	return &metrics{
		started:   r.Counter("harness_replications_started_total", "replications dispatched to the worker pool"),
		completed: r.Counter("harness_replications_completed_total", "replications that finished successfully"),
		failed:    r.Counter("harness_replications_failed_total", "replications that returned an error"),
		wall:      r.Histogram("harness_replication_wall_ns", "wall time per replication in nanoseconds", obs.Pow2Bounds(40)),
		workers:   r.Gauge("harness_workers", "worker pool size of the most recent run"),
	}
}

// Error reports a failed run: the lowest-indexed replication error observed
// before the pool drained.
type Error struct {
	// Index is the replication that failed.
	Index int
	// Err is its error.
	Err error
}

func (e *Error) Error() string { return fmt.Sprintf("harness: replication %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying replication error to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Map runs n replications of fn on a bounded worker pool and returns their
// results in index order. Replication i receives a Rep whose RNG is the
// keyed substream rng.Substream(seed, i), so the returned slice is identical
// for every Options.Parallelism — the determinism contract the experiment
// drivers and their golden tests rely on.
//
// If any replication returns an error, the rest of the run is cancelled and
// Map returns a *Error for the lowest-indexed failure it observed. If the
// context expires first, Map returns the context's error. In both cases the
// already-completed results are returned alongside the error (failed or
// skipped slots hold the zero value of T).
func Map[T any](opt Options, seed uint64, n int, fn func(rep *Rep) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("harness: negative replication count %d", n)
	}
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var cancel context.CancelFunc
	if opt.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	ins := newMetrics(opt.Metrics)
	if ins != nil {
		ins.workers.Set(int64(workers))
	}

	// Pre-split every substream before dispatch. This is cheap (a few
	// SplitMix64 rounds per replication) and makes the determinism argument
	// trivial: the streams exist, fully formed, before any worker runs.
	gens := make([]*rng.RNG, n)
	for i := range gens {
		gens[i] = rng.Substream(seed, uint64(i))
	}

	// Per-replication span recorders, created lazily as indices are claimed
	// and merged in index order after the pool drains: namespaced IDs and
	// ordered merging make the combined trace independent of Parallelism.
	var srecs []*span.Recorder
	var nsBase uint64
	var parentRoot span.ID
	spanCap := opt.SpanCap
	if spanCap <= 0 {
		spanCap = defaultRepSpanCap
	}
	if opt.Spans != nil {
		srecs = make([]*span.Recorder, n)
		// One namespace block per Map call: successive runs merging into
		// the same trace (e.g. sweep cells) never collide.
		nsBase = opt.Spans.ClaimNamespaces(n)
		parentRoot = opt.Spans.Root()
	}

	var (
		next      atomic.Int64 // next replication index to claim
		mu        sync.Mutex   // guards completed, firstErr and OnProgress
		completed int
		firstErr  *Error
		wg        sync.WaitGroup
	)
	body := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= n || ctx.Err() != nil {
				return
			}
			if ins != nil {
				ins.started.Inc()
			}
			var rec *span.Recorder
			var repSpan span.ID
			if srecs != nil {
				rec = span.NewSub(spanCap, nsBase+uint64(i))
				repSpan = rec.NextID()
				rec.SetRoot(repSpan)
				srecs[i] = rec
			}
			start := time.Now() //hetlb:nondeterministic-ok wall clock only feeds the replication-wall histogram, never results
			v, err := fn(&Rep{Index: i, RNG: gens[i], Ctx: ctx, Spans: rec})
			wall := time.Since(start).Nanoseconds() //hetlb:nondeterministic-ok wall clock only feeds the replication-wall histogram, never results
			if rec != nil {
				var fl span.Flags
				if err != nil {
					fl = span.FlagFailed
				}
				rec.Append(span.Span{
					ID:     repSpan,
					Parent: parentRoot,
					Kind:   span.KindReplication,
					Flags:  fl,
					A:      int32(i),
					B:      -1,
					Start:  int64(i),
					End:    int64(i),
				})
			}
			if err != nil {
				if ins != nil {
					ins.failed.Inc()
					ins.wall.Observe(wall)
				}
				mu.Lock()
				if firstErr == nil || i < firstErr.Index {
					firstErr = &Error{Index: i, Err: err}
				}
				mu.Unlock()
				cancel()
				return
			}
			out[i] = v
			if ins != nil {
				ins.completed.Inc()
				ins.wall.Observe(wall)
			}
			mu.Lock()
			completed++
			if opt.OnProgress != nil {
				opt.OnProgress(completed, n)
			}
			mu.Unlock()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go body()
	}
	wg.Wait()

	if opt.Spans != nil {
		for _, rec := range srecs {
			if rec != nil {
				opt.Spans.Merge(rec)
			}
		}
	}

	if firstErr != nil {
		return out, firstErr
	}
	if completed < n {
		// Only a context expiry can leave work undone without a
		// replication error.
		return out, fmt.Errorf("harness: run cancelled after %d/%d replications: %w", completed, n, context.Cause(ctx))
	}
	return out, nil
}

// Sequential returns options that force single-worker in-order execution —
// the reference schedule for determinism tests.
func Sequential() Options { return Options{Parallelism: 1} }
