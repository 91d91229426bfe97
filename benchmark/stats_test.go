package main

import (
	"math"
	"testing"
	"time"

	"gridrep/internal/metrics"
)

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.25, 20}, {0.9, 46}, {1, 50}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty sample must read 0")
	}
}

// The reporting rule: a percentile is printed only with at least ten
// samples beyond it — p95 from 200 samples, p99 from 1000.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{199, 0.95, false}, {200, 0.95, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// A summary reports the median of any class that has samples, a p95 only
// from 200 samples on, and counts an operation that outlived the deadline
// as failed.
func TestSummarizeAppliesRuleAndDeadline(t *testing.T) {
	var ops []opRecord
	for i := 0; i < 250; i++ { // 250 writes of 1..250 ms
		ops = append(ops, opRecord{Kind: kvPut, Due: 0, Start: 0, End: int64(i+1) * 1e6})
	}
	for i := 0; i < 50; i++ { // 50 reads of 2 ms
		ops = append(ops, opRecord{Kind: kvGet, Due: 0, Start: 0, End: 2e6})
	}
	ops = append(ops, opRecord{Kind: kvGet, Due: 0, Start: 0, End: 3e9}) // outlives 2 s
	ops = append(ops, opRecord{Kind: kvGet, Failed: true, End: 1e6})
	s := summarize(ops, 0, 2*time.Second)
	if s.attempted != 302 || s.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 302 and 2", s.attempted, s.failed)
	}
	if got := s.pXX(classWrite, 0.95); got < 237 || got > 239 {
		t.Errorf("write p95 = %v, want ≈238", got)
	}
	if got := s.pXX(classRead, 0.95); got != 0 {
		t.Errorf("read p95 from 50 samples = %v, want it withheld", got)
	}
	if got := s.pXX(classRead, 0.5); got != 2 {
		t.Errorf("read p50 = %v, want 2", got)
	}
	if got := s.pXX(classTxn, 0.5); got != 0 {
		t.Errorf("txn p50 without samples = %v, want 0", got)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4),
// which the benchmark contract uses.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quantiles: 2.75, 5.5, 8.25
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestRegTotalsDeltaAcrossRestart(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("c_total", "")
	h := reg.Histogram("h_seconds", "", metrics.UnitNanoseconds)
	g := reg.Gauge("g", "")
	c.Add(5)
	h.Observe(1000)
	before := snapRegistry(reg)
	c.Add(7)
	h.Observe(3000)
	h.Observe(3000)
	g.Set(9)
	tot := newRegTotals()
	tot.addDelta(before, snapRegistry(reg))

	// A restarted replica: fresh registry, counted from zero.
	fresh := metrics.NewRegistry()
	fresh.Counter("c_total", "").Add(2)
	tot.addDelta(regSnap{}, snapRegistry(fresh))

	if tot.counters["c_total"] != 9 {
		t.Errorf("counter delta = %v, want 7 + 2", tot.counters["c_total"])
	}
	if hs := tot.hists["h_seconds"]; hs.Count != 2 || hs.Sum != 6000 {
		t.Errorf("histogram delta count %d sum %d, want 2 and 6000", hs.Count, hs.Sum)
	}
	if tot.gaugeMax["g"] != 9 {
		t.Errorf("gauge max = %d, want 9", tot.gaugeMax["g"])
	}
}
