// Package obs is the engine's dependency-free observability layer: a
// process-wide registry of named counters, gauges and log-bucketed
// latency histograms (metrics.go, prometheus.go), and a lightweight
// context-propagated span tracer (trace.go).
//
// Design constraints, in order:
//
//   - Nothing on a request hot path takes a lock. Counters and
//     histograms are striped across cache-line-padded atomic cells
//     indexed by a cheap goroutine-affine hash, so concurrent writers
//     on different CPUs rarely share a line. The registry's own mutex
//     is touched only at registration (once per metric, at wiring
//     time) and at scrape.
//   - Tracing costs ~nothing when off: StartSpan is a single context
//     lookup returning a nil *Span, and every Span method is nil-safe.
//   - No dependencies beyond the standard library; the exposition
//     format is Prometheus text 0.0.4, written by hand.
package obs

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// nStripes is the stripe count for counters and histograms: the next
// power of two covering the CPUs, bounded to keep per-metric memory
// reasonable on very wide machines.
var nStripes = func() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 32 {
		n <<= 1
	}
	return n
}()

// stripe returns a goroutine-affine stripe index. Goroutine stacks are
// spread across the address space, so the page bits of a stack address
// distribute concurrent goroutines across stripes without any runtime
// support; the exact distribution does not matter for correctness, only
// for contention.
func stripe() int {
	var probe byte
	p := uintptr(unsafe.Pointer(&probe))
	return int((p>>12)^(p>>19)) & (nStripes - 1)
}

// cell is one cache-line-padded atomic counter, preventing false
// sharing between stripes.
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing striped counter.
type Counter struct {
	cells []cell
}

func newCounter() *Counter { return &Counter{cells: make([]cell, nStripes)} }

// Add adds n (which should be non-negative) to the counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.cells[stripe()].v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the stripes.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var sum int64
	for i := range c.cells {
		sum += c.cells[i].v.Load()
	}
	return sum
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

func newGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n (use a negative n to decrement).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc and Dec adjust by one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value loads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket layout: exponential powers of two over nanoseconds,
// 2^histMinExp .. 2^histMaxExp, plus a +Inf overflow bucket. 4096ns
// (~4µs) to 2^36ns (~69s) covers everything from a cache-warm counter
// bump to a pathological analytical query.
const (
	histMinExp    = 12
	histMaxExp    = 36
	histNumFinite = histMaxExp - histMinExp + 1
	histBuckets   = histNumFinite + 1 // + overflow
)

// histStripe is one stripe's buckets and sum, padded out to its own
// cache lines.
type histStripe struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	_       [56]byte
}

// Histogram is a striped, log-bucketed histogram of nanosecond
// durations. Observations are lock-free; quantiles and the Prometheus
// exposition are derived from the cumulative bucket counts at read
// time.
type Histogram struct {
	stripes []histStripe
	// max tracks the largest observation (CAS loop; contention is
	// bounded because losing the race means someone observed a larger
	// value already).
	max atomic.Int64
}

func newHistogram() *Histogram { return &Histogram{stripes: make([]histStripe, nStripes)} }

// NewHistogram returns a standalone histogram not attached to any
// registry — for aggregations (the workload profiler's per-shape
// latency histograms) that render through their own exposition.
func NewHistogram() *Histogram { return newHistogram() }

// bucketIdx maps a nanosecond value onto its bucket: the smallest k
// with v <= 2^k, clamped to the finite range.
func bucketIdx(v int64) int {
	if v <= 1<<histMinExp {
		return 0
	}
	k := bits.Len64(uint64(v - 1)) // ceil(log2 v)
	if k > histMaxExp {
		return histNumFinite // +Inf
	}
	return k - histMinExp
}

// bucketBound returns the inclusive upper bound of finite bucket i, in
// nanoseconds.
func bucketBound(i int) int64 { return 1 << (histMinExp + i) }

// Observe records a duration in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	s := &h.stripes[stripe()]
	s.buckets[bucketIdx(ns)].Add(1)
	s.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// snapshot sums the stripes into one bucket array plus count and sum.
func (h *Histogram) snapshot() (buckets [histBuckets]int64, count, sum int64) {
	if h == nil {
		return
	}
	for i := range h.stripes {
		s := &h.stripes[i]
		for b := 0; b < histBuckets; b++ {
			v := s.buckets[b].Load()
			buckets[b] += v
			count += v
		}
		sum += s.sum.Load()
	}
	return
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	_, c, _ := h.snapshot()
	return c
}

// Sum returns the sum of observations in nanoseconds.
func (h *Histogram) Sum() int64 {
	_, _, s := h.snapshot()
	return s
}

// Max returns the largest observation in nanoseconds.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile estimates the q-quantile (0 <= q <= 1) in nanoseconds: the
// upper bound of the bucket the rank falls into, with linear
// interpolation inside the bucket. An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) int64 {
	buckets, count, _ := h.snapshot()
	if count == 0 {
		return 0
	}
	rank := q * float64(count)
	if rank < 1 {
		// q=0 (or tiny q) must land on the first *occupied* bucket, not
		// bucket 0's bound: with rank 0 the cumulative test passes on an
		// empty leading bucket and interpolation returns garbage.
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		prev := cum
		cum += buckets[i]
		if float64(cum) >= rank {
			if i == histNumFinite {
				return h.Max() // rank landed in +Inf: best estimate is the max
			}
			hi := bucketBound(i)
			lo := int64(0)
			if i > 0 {
				lo = bucketBound(i - 1)
			}
			if buckets[i] == 0 {
				return hi
			}
			frac := (rank - float64(prev)) / float64(buckets[i])
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + int64(frac*float64(hi-lo))
		}
	}
	return h.Max()
}

// GaugeFunc is a read-at-scrape gauge backed by a callback.
type GaugeFunc struct {
	fn func() float64
}

// Value evaluates the callback.
func (g *GaugeFunc) Value() float64 {
	if g == nil || g.fn == nil {
		return 0
	}
	return g.fn()
}
