package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Registry is the concrete Recorder: a named set of atomic counters,
// histograms and timing histograms. All methods are safe for concurrent
// use; the mutex only guards the name→metric maps, every update after
// lookup is lock-free.
//
// Lock order: mu is a leaf lock — no Registry method calls out of the
// package while holding it (the RLock→RUnlock→Lock upgrade in the lookup
// path stays inside this file), so it nests safely under any caller's
// lock.
type Registry struct {
	mu sync.RWMutex
	//nontree:guardedby mu
	counters map[string]*atomic.Int64
	//nontree:guardedby mu
	hists map[string]*histogram
	//nontree:guardedby mu
	timings map[string]*histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*atomic.Int64),
		hists:    make(map[string]*histogram),
		timings:  make(map[string]*histogram),
	}
}

// Add implements Recorder.
func (g *Registry) Add(name string, delta int64) {
	g.counter(name).Add(delta)
}

// Observe implements Recorder.
func (g *Registry) Observe(name string, value float64) {
	g.hist(name, false).observe(value)
}

// ObserveDuration implements Recorder.
func (g *Registry) ObserveDuration(name string, seconds float64) {
	g.hist(name, true).observe(seconds)
}

// Declare registers an empty histogram so it appears in snapshots even
// when the run never observes a sample — the schema-stability guarantee
// the benchmark harness relies on.
func (g *Registry) Declare(name string) {
	g.hist(name, false)
}

// DeclareTiming registers an empty timing histogram, the Timings-section
// counterpart of Declare (PreregisterServe uses it to pin the /metrics
// key set).
func (g *Registry) DeclareTiming(name string) {
	g.hist(name, true)
}

func (g *Registry) counter(name string) *atomic.Int64 {
	g.mu.RLock()
	c := g.counters[name]
	g.mu.RUnlock()
	if c != nil {
		return c
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if c = g.counters[name]; c == nil {
		c = new(atomic.Int64)
		g.counters[name] = c
	}
	return c
}

// hist returns the named histogram of the Timings section when timing is
// set and of the Histograms section otherwise, creating it on first use.
// Both maps are made once by NewRegistry and never replaced, so the
// section chosen under the read lock is still the live map under the
// write lock; every access to it happens with mu held.
func (g *Registry) hist(name string, timing bool) *histogram {
	g.mu.RLock()
	m := g.hists
	if timing {
		m = g.timings
	}
	h := m[name]
	g.mu.RUnlock()
	if h != nil {
		return h
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if h = m[name]; h == nil {
		h = newHistogram()
		m[name] = h
	}
	return h
}

// numBuckets covers binary exponents −32..31, wide enough for both event
// counts (1..2³¹) and span durations (250 ps .. hours).
const numBuckets = 64

// histogram accumulates samples lock-free: count and per-exponent bucket
// tallies are plain atomic adds (order-independent), sum/min/max use CAS
// loops on the float bit patterns (min/max are order-independent; sum is
// exact — hence order-independent — for integer-valued samples, which is
// all the deterministic instrumentation ever records).
type histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // +Inf when empty
	maxBits atomic.Uint64 // −Inf when empty
	buckets [numBuckets]atomic.Int64
}

func newHistogram() *histogram {
	h := &histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps a sample to its power-of-two bucket: index i holds
// samples v with 2^(i−32) ≤ v < 2^(i−31), clamped at the ends; zero and
// negative samples land in bucket 0.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	e := math.Ilogb(v) + 32
	if e < 0 {
		return 0
	}
	if e >= numBuckets {
		return numBuckets - 1
	}
	return e
}

// BucketIndex exposes the histogram bucketing for exemplar links: it
// returns the bucket index a sample of v lands in, so a wide event can
// point at the exact serve.route.seconds bucket its latency was counted
// under (DESIGN.md §16). Index i holds 2^(i−32) ≤ v < 2^(i−31); zero,
// negative and NaN samples land in bucket 0.
func BucketIndex(v float64) int {
	return bucketIndex(v)
}

func (h *histogram) observe(v float64) {
	h.count.Add(1)
	h.buckets[bucketIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}
