package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, for every (end-to-end metric, workload) pair, the
// medians of two -save files, how much b is worse than a as a share of
// a's median, the run-to-run spread and the verdict against the metric's
// bound. Where the spread of either side exceeds the bound the pair is
// "unresolved": the runs cannot tell a regression from noise.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare needs two result files, got %d", len(paths))
	}
	a, err := loadRuns(paths[0])
	if err != nil {
		return err
	}
	b, err := loadRuns(paths[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-14s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "a median", "b median", "worse", "spread", "bound", "verdict")
	regressions := 0
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			va, vb := a[name][d.Name], b[name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma) // share of a's median by which b is worse
			if d.Better == "higher" {
				worse = -worse
			}
			spread := quartileSpread(va)
			if s := quartileSpread(vb); s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case spread > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-18s %-14s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%%  %s (n=%d,%d)\n",
				name, d.Name, ma, mb, worse*100, spread*100, d.Bound*100, verdict, len(va), len(vb))
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bounds", regressions)
	}
	return nil
}

// loadRuns reads a -save file into workload → metric → values of the
// untraced runs.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, nil
}
