package main

import (
	"math"
	"sort"

	"gridrep/internal/metrics"
)

// quantile returns the q-quantile (0..1) of sorted values, linearly
// interpolated between ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return valueAt(sorted, q*float64(len(sorted)-1))
}

// valueAt reads a sorted sample at a fractional index, interpolating
// between neighbours and clamping to the ends.
func valueAt(sorted []float64, pos float64) float64 {
	pos = math.Max(0, math.Min(pos, float64(len(sorted)-1)))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// supports reports whether n samples support the q-quantile under the
// reporting rule: a percentile is printed only when at least ten samples
// lie beyond it.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles statistics.quantiles(n=4)
// gives (the exclusive method) — the figure the benchmark contract uses
// to judge steadiness.
func quartileSpread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		return valueAt(s, float64(k)*float64(n+1)/4-1)
	}
	med := at(2)
	if med == 0 {
		return 0
	}
	return math.Abs(at(3)-at(1)) / math.Abs(med)
}

// regSnap is one registry's instruments by name.
type regSnap map[string]metrics.Metric

func snapRegistry(reg *metrics.Registry) regSnap {
	out := regSnap{}
	if reg == nil {
		return out
	}
	for _, m := range reg.Snapshot() {
		out[m.Name] = m
	}
	return out
}

// regTotals accumulates, over a measurement window and across replicas,
// counter deltas, histogram deltas and gauge extremes. A replica that is
// crashed and restarted gets a fresh registry, so its delta is folded in
// when it is retired (see regTracker).
type regTotals struct {
	counters map[string]float64
	hists    map[string]*metrics.HistSnapshot
	gaugeMax map[string]int64 // highest sampled value of each gauge
}

func newRegTotals() *regTotals {
	return &regTotals{
		counters: map[string]float64{},
		hists:    map[string]*metrics.HistSnapshot{},
		gaugeMax: map[string]int64{},
	}
}

// addDelta folds after − before into the totals. Instruments missing from
// before (a fresh registry) count from zero.
func (t *regTotals) addDelta(before, after regSnap) {
	for name, m := range after {
		switch m.Kind {
		case metrics.KindCounter:
			t.counters[name] += float64(m.Value - before[name].Value)
		case metrics.KindHistogram:
			d := *m.Hist
			if b, ok := before[name]; ok && b.Hist != nil {
				d.Count -= b.Hist.Count
				d.Sum -= b.Hist.Sum
				for i := range d.Counts {
					d.Counts[i] -= b.Hist.Counts[i]
				}
			}
			if cur, ok := t.hists[name]; ok {
				cur.Count += d.Count
				cur.Sum += d.Sum
				for i := range cur.Counts {
					cur.Counts[i] += d.Counts[i]
				}
			} else {
				t.hists[name] = &d
			}
		case metrics.KindGauge:
			t.sampleGauge(name, m.Value)
		}
	}
}

func (t *regTotals) sampleGauge(name string, v int64) {
	if cur, ok := t.gaugeMax[name]; !ok || v > cur {
		t.gaugeMax[name] = v
	}
}

// sampleGauges records the current gauge values of one registry.
func (t *regTotals) sampleGauges(s regSnap) {
	for name, m := range s {
		if m.Kind == metrics.KindGauge {
			t.sampleGauge(name, m.Value)
		}
	}
}

// histQuantile returns the q-quantile of an accumulated histogram
// converted by div (1e3 for ns→us, 1e6 for ns→ms), 0 when empty.
func (t *regTotals) histQuantile(name string, q, div float64) float64 {
	h, ok := t.hists[name]
	if !ok || h.Count == 0 {
		return 0
	}
	return h.Quantile(q) / div
}

// histBucket returns the upper bound of the bucket holding the
// q-quantile of an accumulated count histogram: buckets are powers of
// two, and interpolating inside one would invent fractional counts.
func (t *regTotals) histBucket(name string, q float64) float64 {
	h, ok := t.hists[name]
	if !ok || h.Count == 0 {
		return 0
	}
	rank, cum := q*float64(h.Count), 0.0
	for i, c := range h.Counts {
		if cum += float64(c); cum >= rank {
			return math.Ldexp(1, i)
		}
	}
	return math.Ldexp(1, len(h.Counts)-1)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
