package main

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"hetlb/internal/core"
	"hetlb/internal/gossip"
	"hetlb/internal/pairwise"
	"hetlb/internal/protocol"
)

// row is one line of the traced run's layer table. Each row holds the self
// time of the spans charged to it: a span's duration minus the part of it
// that child spans cover.
type row int

const (
	rowTrace row = iota // the tracer's own bookkeeping: barrier processing, per-instance set-up
	rowWorkload
	rowCore
	rowCentral
	rowGossip
	rowShardEpochs
	rowShardDetect
	rowShardSnapshot
	rowShardOther
	rowProtocolSessions
	rowProtocolDetect
	numRows
)

var rowNames = [numRows]string{
	"bench.trace", "workload", "core", "central", "gossip",
	"shardgossip.epochs", "shardgossip.detect", "shardgossip.snapshot", "shardgossip.other",
	"protocol.sessions", "protocol.detect",
}

// layerTotal names a per-layer metric that sums the spans of one kind of call.
type layerTotal int

const (
	noTotal layerTotal = iota
	totGen
	totPlace
	totShardNew
	totReference
	totValidate
	numTotals
)

// tracer collects the traced run's spans. Spans are recorded from outside
// the program: around calls into each layer's public functions, from a
// protocol decorator (kernelLog) and from engine observers. A nil *tracer
// records nothing, which is how the untraced run executes the same code.
type tracer struct {
	t0   time.Time
	self [numRows]int64 // ns

	totals                 [numTotals]int64 // ns
	snapshot               int64            // ns
	gossipRun, gossipSteps int64
	stepNS                 histogram
	epochMS                []float64

	detect, detectChecks, detectCalls, detectUseful int64
	sessions, changed, cross, moves                 int64

	kernel kernelStats
	// overflow counts kernel calls the interval log had no slot for; any
	// makes the layer table unreliable and fails the traced run.
	overflow int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now()}
}

// now returns nanoseconds since the tracer started (monotonic clock).
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span; 0 when tracing is off.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// end closes a leaf span opened at start, charging its duration to row r
// and to the per-layer total tot.
func (t *tracer) end(start int64, r row, tot layerTotal) {
	if t == nil {
		return
	}
	d := t.now() - start
	t.self[r] += d
	t.totals[tot] += d
}

// kernelStats aggregates every kernel call the decorator forwards. Sessions
// of the sharded engine call it from several goroutines at once, so every
// field is updated atomically.
type kernelStats struct {
	calls, busy, unionJobs, unionCalls atomic.Int64
	ns                                 histogram
}

// kernelLog is the protocol.Protocol decorator: it forwards to the real
// protocol and times SplitScratch, BalanceScratch and Balance. When sized
// with logCap > 0 it also keeps the [start, end] interval of every call made
// since the last epoch barrier, indexed by call number, so the barrier
// observer can split the interval into detection and session time.
type kernelLog struct {
	protocol.Protocol
	tr     *tracer
	busyNS atomic.Int64 // this instance's share of tr.kernel.busy
	// base is the call number at the last barrier. Only the coordinator
	// writes it, between epochs; the start-channel handoff orders the write
	// before any worker's next call.
	base       int64
	seq        atomic.Int64
	start, end []int64
	sorted     []interval
}

type interval struct{ s, e int64 }

func newKernelLog(p protocol.Protocol, tr *tracer, logCap int) *kernelLog {
	return &kernelLog{Protocol: p, tr: tr, start: make([]int64, logCap), end: make([]int64, logCap)}
}

func (k *kernelLog) record(t0 int64, union int) {
	t1 := k.tr.now()
	st := &k.tr.kernel
	st.calls.Add(1)
	st.busy.Add(t1 - t0)
	st.ns.add(t1 - t0)
	k.busyNS.Add(t1 - t0)
	if union >= 0 {
		st.unionJobs.Add(int64(union))
		st.unionCalls.Add(1)
	}
}

// SplitScratch implements protocol.Protocol.
func (k *kernelLog) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	n := k.seq.Add(1) - 1 - k.base
	t0 := k.tr.now()
	toI, toJ := k.Protocol.SplitScratch(s, i, j, jobs)
	k.record(t0, len(jobs))
	if n < int64(len(k.start)) {
		k.start[n], k.end[n] = t0, k.tr.now()
	}
	return toI, toJ
}

// BalanceScratch implements protocol.Protocol; it is the sequential engine's
// step kernel.
func (k *kernelLog) BalanceScratch(s *pairwise.Scratch, a *core.Assignment, i, j int) int {
	k.seq.Add(1)
	t0 := k.tr.now()
	moved := k.Protocol.BalanceScratch(s, a, i, j)
	k.record(t0, len(s.Union))
	return moved
}

// Balance implements protocol.Protocol; the sequential engine calls it only
// from its stability check.
func (k *kernelLog) Balance(a *core.Assignment, i, j int) {
	k.seq.Add(1)
	t0 := k.tr.now()
	k.Protocol.Balance(a, i, j)
	k.record(t0, -1)
}

// pending returns the number of calls since the last barrier.
func (k *kernelLog) pending() int { return int(k.seq.Load() - k.base) }

// busy sums the durations of logged calls [lo, hi).
func (k *kernelLog) busy(lo, hi int) int64 {
	var b int64
	for n := lo; n < hi; n++ {
		b += k.end[n] - k.start[n]
	}
	return b
}

// covered returns how much of [from, to] the logged calls [lo, hi) cover.
// Sessions on different shards overlap in time, so this is the length of
// the union of their intervals, not the sum of their durations.
func (k *kernelLog) covered(lo, hi int, from, to int64) int64 {
	iv := k.sorted[:0]
	for n := lo; n < hi; n++ {
		if x := (interval{max(k.start[n], from), min(k.end[n], to)}); x.e > x.s {
			iv = append(iv, x)
		}
	}
	slices.SortFunc(iv, func(a, b interval) int { return cmp.Compare(a.s, b.s) })
	k.sorted = iv
	var sum int64
	var cur interval
	for _, x := range iv {
		if x.s > cur.e {
			sum += cur.e - cur.s
			cur = x
		} else if x.e > cur.e {
			cur.e = x.e
		}
	}
	return sum + cur.e - cur.s
}

// stepClock is the gossip.Observer of the sequential engine: it timestamps
// every step.
type stepClock struct {
	tr   *tracer
	last int64
}

// OnStep implements gossip.Observer.
func (o *stepClock) OnStep(gossip.Stepper, int, int, int) {
	now := o.tr.now()
	o.tr.stepNS.add(now - o.last)
	o.last = now
}

// barrierClock is the gossip.Observer of the sharded engine. At each epoch
// barrier it splits the time since the previous barrier into the stability
// check the coordinator ran first (if any) and the epoch itself. The check's
// kernel calls are the first calls after the barrier: the coordinator makes
// them alone, before it starts the next epoch's sessions, so they are the
// calls in excess of the epoch's sessions.
type barrierClock struct {
	tr       *tracer
	k        *kernelLog
	boundary int64 // where the next interval starts
	steps    int   // Stepper.Steps() at the previous barrier
}

func newBarrierClock(tr *tracer, k *kernelLog) *barrierClock {
	return &barrierClock{tr: tr, k: k, boundary: tr.now()}
}

// OnStep implements gossip.Observer.
func (o *barrierClock) OnStep(e gossip.Stepper, _, _, _ int) {
	now := o.tr.now()
	calls := o.k.pending()
	sessions := e.Steps() - o.steps
	o.steps = e.Steps()
	det := calls - sessions
	if calls > len(o.k.start) || det < 0 {
		o.tr.overflow += int64(max(calls-len(o.k.start), 1))
		o.k.base += int64(calls)
		o.boundary = o.tr.now()
		return
	}
	start := o.boundary
	if det > 0 {
		o.charge(o.k.end[det-1]-start, 0, det)
		start = o.k.end[det-1]
	}
	wall := now - start
	covered := o.k.covered(det, calls, start, now)
	o.tr.epochMS = append(o.tr.epochMS, float64(wall)/1e6)
	o.tr.self[rowProtocolSessions] += covered
	o.tr.self[rowShardEpochs] += wall - covered
	o.k.base += int64(calls)
	o.boundary = o.tr.now()
	o.tr.self[rowTrace] += o.boundary - now
}

// charge books one stability check of length span made of logged calls
// [lo, hi).
func (o *barrierClock) charge(span int64, lo, hi int) {
	b := o.k.busy(lo, hi)
	o.tr.detect += span
	o.tr.detectChecks++
	o.tr.detectCalls += int64(hi - lo)
	o.tr.self[rowShardDetect] += span - b
	o.tr.self[rowProtocolDetect] += b
}

// finish books the part of Run after the last barrier: the snapshot Run
// returns and, with stability detection on, up to two checks. Run takes the
// snapshot after the check that ends the run early; when the budget ends
// the run, it takes the snapshot and then checks once more, after an
// in-loop check that may have followed the last epoch. Each check's calls
// are contiguous and the snapshot makes no calls, so the snapshot is the
// longest gap around or between the calls.
func (o *barrierClock) finish(runEnd int64, converged bool) {
	k := o.k
	calls := k.pending()
	if calls > len(k.start) {
		o.tr.overflow += int64(calls - len(k.start))
		calls = 0
	}
	gapAt, gap := 0, int64(-1)
	prev := o.boundary
	for n := 0; n <= calls; n++ {
		next := runEnd
		if n < calls {
			next = k.start[n]
		}
		if next-prev > gap {
			gapAt, gap = n, next-prev
		}
		if n < calls {
			prev = k.end[n]
		}
	}
	if gapAt > 0 {
		o.charge(k.end[gapAt-1]-o.boundary, 0, gapAt)
	}
	if gapAt < calls {
		o.charge(runEnd-k.start[gapAt], gapAt, calls)
	}
	if calls > 0 && converged {
		o.tr.detectUseful++
	}
	o.tr.snapshot += gap
	o.tr.self[rowShardSnapshot] += gap
	k.base += int64(calls)
}

// histogram is a log-linear histogram of positive int64 samples with 32
// sub-buckets per power of two (quantile error below 3.2%), safe for
// concurrent add.
type histogram struct {
	b [64 * 32]atomic.Int64
}

func bucketOf(v int64) int {
	if v < 32 {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 1
	return (e-4)*32 + int(v>>(e-5))&31
}

// lowerOf is the smallest value in bucket b.
func lowerOf(b int) int64 {
	if b < 32 {
		return int64(b)
	}
	e := b/32 + 4
	return int64(32+b%32) << (e - 5)
}

func (h *histogram) add(v int64) { h.b[bucketOf(v)].Add(1) }

func (h *histogram) count() int64 {
	var n int64
	for i := range h.b {
		n += h.b[i].Load()
	}
	return n
}

// quantile returns the q-quantile as the midpoint of its bucket, 0 when
// the histogram is empty.
func (h *histogram) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	rank = max(rank, 1)
	var seen int64
	for i := range h.b {
		seen += h.b[i].Load()
		if seen >= rank {
			return float64(lowerOf(i)+lowerOf(i+1)) / 2
		}
	}
	return 0
}
