package main

import (
	"io"
	"testing"
	"time"
)

// A one-second run of each in-process workload: set-up, load, settle,
// every correctness check, and all end-to-end metrics non-zero. (The TCP
// workloads differ only in deployment and are run by the benchmark
// itself; lan-failover needs a longer window to fit a crash, so here it
// runs fault-free.)
func TestSmokeInProcessWorkloads(t *testing.T) {
	for _, name := range []string{wlSchedTxn, wlFailover} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := params{workload: name, seed: 1, seconds: 1, outDir: t.TempDir()}
			r, err := setup(p, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			res, err := r.measure(io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range endToEnd {
				if d.Name == "peak_rss_mb" {
					continue // added by the parent process
				}
				if v := res.Metrics[d.Name].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", d.Name, v)
				}
			}
		})
	}
}
