// Package obs is the observability substrate shared by every runtime in the
// repository: a concurrency-safe metrics registry (counters, gauges,
// fixed-bucket histograms, per-index vectors). The span and timeline
// recorders in the subpackages span and timeline build on the same
// constraints.
//
// Design constraints, in order:
//
//  1. Zero dependencies. Only the standard library; the exposition formats
//     (Prometheus text, JSON snapshot) are emitted by hand.
//  2. Allocation-free record path. Counter.Add, Gauge.Set,
//     Histogram.Observe and CounterVec.At(i).Add perform no heap
//     allocation, so they are safe inside the gossip step loop and the
//     sharded engine's session workers. This is asserted by
//     testing.AllocsPerRun in the package tests.
//  3. Concurrency-safe. All record operations may be called from any number
//     of goroutines; metrics use atomics.
//
// Registration is idempotent: asking a Registry for a metric that already
// exists returns the existing instrument (and panics if the name is reused
// with a different shape), so experiment loops can re-wire the same registry
// across repeated runs and accumulate.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the Prometheus exposition to stay
// truthful; this is not enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to v if v is larger (atomic; useful for peaks).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram over int64 observations. Bucket i
// counts observations v with v <= Bounds[i] (cumulative counting happens at
// exposition time, not record time); the implicit last bucket is +Inf.
type Histogram struct {
	bounds []int64        // strictly increasing upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Int64
	count  atomic.Int64
}

// Observe records one observation. The bucket scan is linear: bucket slices
// are short (tens of entries) and the loop is branch-predictable, which
// beats a binary search at this size and keeps the path trivially
// allocation-free.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bounds returns the bucket upper bounds (not a copy; do not mutate).
func (h *Histogram) Bounds() []int64 { return h.bounds }

// BucketCount returns the raw (non-cumulative) count of bucket i, where
// i == len(Bounds()) addresses the overflow (+Inf) bucket.
func (h *Histogram) BucketCount(i int) int64 { return h.counts[i].Load() }

// Quantile estimates the q-quantile (q in [0, 1], clamped) of the observed
// distribution by linear interpolation within the bucket holding the target
// rank, taking each bucket's lower bound as the previous bound (0 for the
// first). Estimates falling in the +Inf overflow bucket are clamped to the
// last finite bound — the histogram cannot know how far beyond it the tail
// reaches. Returns 0 when nothing was observed.
//
// The estimate reads each bucket once without locking the histogram;
// concurrent Observe calls can skew a live estimate by at most the
// in-flight observations, and a quiesced histogram (the explain pipeline's
// case) is exact up to bucket resolution.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	var lower int64
	for i, b := range h.bounds {
		c := h.counts[i].Load()
		cum += c
		// Empty buckets are skipped, so q = 0 lands on the first non-empty
		// bucket's lower bound (the observed minimum, up to resolution).
		if c > 0 && float64(cum) >= rank {
			frac := (rank - float64(cum-c)) / float64(c)
			return float64(lower) + frac*float64(b-lower)
		}
		lower = b
	}
	return float64(h.bounds[len(h.bounds)-1])
}

// Pow2Bounds returns the bounds 1, 2, 4, ..., 2^maxExp — the default bucket
// layout for nonnegative integer quantities of unknown magnitude (job
// counts, virtual-time durations, nanoseconds).
func Pow2Bounds(maxExp int) []int64 {
	if maxExp < 0 {
		panic("obs: Pow2Bounds needs maxExp >= 0")
	}
	b := make([]int64, maxExp+1)
	for i := range b {
		b[i] = int64(1) << uint(i)
	}
	return b
}

// LinearBounds returns n bounds start, start+width, ..., start+(n-1)*width.
func LinearBounds(start, width int64, n int) []int64 {
	if n <= 0 || width <= 0 {
		panic("obs: LinearBounds needs n > 0 and width > 0")
	}
	b := make([]int64, n)
	for i := range b {
		b[i] = start + int64(i)*width
	}
	return b
}

// CounterVec is a fixed-cardinality family of counters indexed by a small
// dense integer domain (machine index, message kind). All cells are
// allocated at registration, so At is a slice index and recording through a
// cell is allocation-free.
type CounterVec struct {
	label  string
	values []string
	cells  []Counter
}

// At returns the counter for index i.
func (v *CounterVec) At(i int) *Counter { return &v.cells[i] }

// Len returns the number of cells.
func (v *CounterVec) Len() int { return len(v.cells) }

// Total returns the sum over all cells.
func (v *CounterVec) Total() int64 {
	var t int64
	for i := range v.cells {
		t += v.cells[i].Value()
	}
	return t
}

// IndexLabels returns the label values "0", "1", ..., "n-1" for vectors
// indexed by machine number.
func IndexLabels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d", i)
	}
	return out
}

// metricKind discriminates registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterVec
	kindCounterFunc
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterVec, kindCounterFunc:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// entry is one registered metric.
type entry struct {
	name, help string
	kind       metricKind
	c          *Counter
	g          *Gauge
	h          *Histogram
	cv         *CounterVec
	fn         func() int64 // kindCounterFunc: sampled at exposition
}

// Registry holds named metrics and renders them. Registration takes a lock;
// recording through the returned instruments does not touch the registry at
// all.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*entry
	ordered []*entry // registration order, for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// lookup returns the existing entry for name after checking its kind, or
// nil if the name is free.
func (r *Registry) lookup(name string, kind metricKind) *entry {
	e, ok := r.byName[name]
	if !ok {
		validateName(name)
		return nil
	}
	if e.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, e.kind))
	}
	return e
}

func (r *Registry) add(e *entry) {
	r.byName[e.name] = e
	r.ordered = append(r.ordered, e)
}

// Counter returns the counter registered under name, creating it on first
// use. It panics if the name is already used by a different metric kind.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.lookup(name, kindCounter); e != nil {
		return e.c
	}
	e := &entry{name: name, help: help, kind: kindCounter, c: &Counter{}}
	r.add(e)
	return e.c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.lookup(name, kindGauge); e != nil {
		return e.g
	}
	e := &entry{name: name, help: help, kind: kindGauge, g: &Gauge{}}
	r.add(e)
	return e.g
}

// Histogram returns the histogram registered under name, creating it on
// first use with the given strictly increasing bucket bounds. Re-requesting
// the name with different bounds panics.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.lookup(name, kindHistogram); e != nil {
		if !equalBounds(e.h.bounds, bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
		return e.h
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	e := &entry{name: name, help: help, kind: kindHistogram, h: h}
	r.add(e)
	return e.h
}

// CounterFunc registers a pull-style counter: fn is sampled at exposition
// time instead of being recorded into. Use it to surface monotone state
// another component already tracks, such as a ring buffer's dropped-record
// count. Re-registering the name replaces the sampler, so a registry
// outliving the sampled component can be re-pointed at a fresh one. fn must be safe to call from any goroutine and
// should be monotone non-decreasing for the exposition to stay truthful.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	if fn == nil {
		panic("obs: CounterFunc needs a sampler")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.lookup(name, kindCounterFunc); e != nil {
		e.fn = fn
		return
	}
	r.add(&entry{name: name, help: help, kind: kindCounterFunc, fn: fn})
}

// CounterVec returns the counter vector registered under name, creating it
// on first use with one cell per label value. Re-requesting the name with a
// different label or cardinality panics.
func (r *Registry) CounterVec(name, help, label string, values []string) *CounterVec {
	if len(values) == 0 {
		panic("obs: counter vector needs at least one label value")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.lookup(name, kindCounterVec); e != nil {
		if e.cv.label != label || len(e.cv.values) != len(values) {
			panic(fmt.Sprintf("obs: counter vector %q re-registered with a different shape", name))
		}
		return e.cv
	}
	cv := &CounterVec{
		label:  label,
		values: append([]string(nil), values...),
		cells:  make([]Counter, len(values)),
	}
	e := &entry{name: name, help: help, kind: kindCounterVec, cv: cv}
	r.add(e)
	return e.cv
}

// snapshotEntries copies the entry list under the lock so exposition can
// iterate without holding it (values are read atomically per instrument).
func (r *Registry) snapshotEntries() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*entry(nil), r.ordered...)
}

// validateName enforces the Prometheus metric-name charset so exported text
// is always scrapeable.
func validateName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i, ch := range name {
		letter := ch == '_' || ch == ':' ||
			(ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z')
		digit := ch >= '0' && ch <= '9'
		if !letter && !(digit && i > 0) {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}

func equalBounds(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
