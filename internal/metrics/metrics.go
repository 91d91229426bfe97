// Package metrics is the repo's unified observability layer (DESIGN.md
// §11): allocation-free counters, gauges, and fixed-bucket histograms,
// plus a registry that snapshots them and renders Prometheus text or
// JSON. Every instrument is a few atomic words; Observe/Add/Set never
// allocate and never take a lock, so they are safe to stamp through the
// replica's hot path. The paper's evaluation (§5) is entirely
// measurement-driven — per-request latency and throughput — and this
// package is the one place all of those counters now live.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// SetMax raises the gauge to v if v is larger. Not atomic against
// concurrent SetMax callers; the replica's event loop is the only writer
// of every high-water gauge, so a load+store race cannot occur there.
func (g *Gauge) SetMax(v int64) {
	if v > g.v.Load() {
		g.v.Store(v)
	}
}

// Unit tells exporters how to render a histogram's native values.
type Unit int

const (
	// UnitNanoseconds: values are time.Duration nanoseconds; Prometheus
	// output converts bounds and sums to seconds.
	UnitNanoseconds Unit = iota
	// UnitCount: dimensionless counts (e.g. records per batch).
	UnitCount
	// UnitBytes: byte sizes.
	UnitBytes
)

func (u Unit) String() string {
	switch u {
	case UnitNanoseconds:
		return "ns"
	case UnitBytes:
		return "bytes"
	default:
		return "count"
	}
}

// histBuckets is the number of finite histogram buckets. Bucket i spans
// (2^(i-1), 2^i] in the histogram's native unit (bucket 0 is [0, 1]), so
// for nanosecond latencies the range 1ns..2^39ns (~9 minutes) is covered
// with ≤2x resolution; one extra overflow bucket catches the rest.
const histBuckets = 40

// Histogram is a fixed-bucket exponential histogram. Observe is
// allocation-free and lock-free; Snapshot extracts count, sum, and
// interpolated quantiles (p50/p95/p99). The zero Histogram is NOT ready
// to use from a registry — create via NewHistogram or Registry.Histogram
// so the unit is recorded.
type Histogram struct {
	unit   Unit
	counts [histBuckets + 1]atomic.Uint64
	sum    atomic.Uint64
	n      atomic.Uint64
}

// NewHistogram returns an empty histogram measuring the given unit.
func NewHistogram(unit Unit) *Histogram { return &Histogram{unit: unit} }

// bucketIndex maps a value to its bucket: the smallest i with v <= 2^i,
// clamped into the overflow bucket.
func bucketIndex(v uint64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(v - 1)
	if i > histBuckets {
		return histBuckets
	}
	return i
}

// Observe records one value in the histogram's native unit.
func (h *Histogram) Observe(v uint64) {
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// ObserveDuration records d (for UnitNanoseconds histograms).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Since records the elapsed time from t to now.
func (h *Histogram) Since(t time.Time) { h.ObserveDuration(time.Since(t)) }

// HistSnapshot is a point-in-time copy of a histogram. Counts are
// per-bucket (not cumulative); bucket i's upper bound is 2^i in the
// native unit, and the last entry is the overflow bucket.
type HistSnapshot struct {
	Unit   Unit
	Count  uint64
	Sum    uint64
	Counts [histBuckets + 1]uint64
}

// Snapshot copies the histogram's state. Concurrent Observes may land
// between bucket reads; the snapshot is still a valid histogram, just
// not a single instant's.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Unit: h.unit, Count: h.n.Load(), Sum: h.sum.Load()}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Mean returns the average observed value in native units (0 if empty).
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// bucketBounds returns bucket i's value span [lo, hi].
func bucketBounds(i int) (lo, hi float64) {
	hi = math.Ldexp(1, i) // 2^i
	if i == 0 {
		return 0, 1
	}
	return math.Ldexp(1, i-1), hi
}

// Quantile returns the q-quantile (0 < q <= 1) in native units, linearly
// interpolated inside the covering bucket. The overflow bucket reports
// its lower bound — an underestimate, flagged by the caller if needed.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		if cum+float64(c) >= rank {
			if i == len(s.Counts)-1 {
				return lo
			}
			frac := (rank - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += float64(c)
	}
	lo, _ := bucketBounds(len(s.Counts) - 1)
	return lo
}

// P50, P95, P99 are the quantiles the paper-style breakdowns print.
func (s *HistSnapshot) P50() float64 { return s.Quantile(0.50) }
func (s *HistSnapshot) P95() float64 { return s.Quantile(0.95) }
func (s *HistSnapshot) P99() float64 { return s.Quantile(0.99) }

// MS converts a native-unit value of a nanosecond histogram to
// milliseconds (identity for other units).
func (s *HistSnapshot) MS(v float64) float64 {
	if s.Unit == UnitNanoseconds {
		return v / 1e6
	}
	return v
}
