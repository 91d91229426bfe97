// Command benchmark is gridrep's canonical benchmark: four named
// workloads, end-to-end metrics with regression bounds, and a per-layer
// budget measured from outside the program. README.md in this directory
// is the glossary; BENCHMARK.json at the repo root is the contract.
//
//	bash benchmark/run.sh                         # all four workloads, untraced then traced
//	bash benchmark/run.sh --workload lan-failover --seed 3 --seconds 20 --trace 0
//	bash benchmark/run.sh -layers                 # direct layer calls only
//	bash benchmark/run.sh -repeat 10 -untraced -save a.json  # calibration runs
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart anchors setup_s: process start to leader active and
// preload done.
var processStart = time.Now()

// parts is how many fresh child processes share one untraced run's
// measuring time. Each sets the workload up and measures for a third of
// the time on inputs of its own (derived from the run's seed), and the run
// reports the median of each metric over the parts: a process that came
// up in a slow state (heap layout, scheduling, a busy neighbour) moves a
// single long measurement by ±10 % on the CPU-bound workloads, but rarely
// two parts out of three.
const parts = 3

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run; empty runs all four, untraced then traced")
	seed := fs.Int64("seed", 1, "seed of the op/key stream, the network model and the crash schedule")
	seconds := fs.Float64("seconds", defaultSeconds, "measuring time of one run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer metrics")
	outDir := fs.String("out", "benchmark/out", "directory for traces, result files and temporary WALs")
	layers := fs.Bool("layers", false, "run only the direct layer calls, for every workload's shape")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	repeat := fs.Int("repeat", 1, "full run only: repeat each workload with seeds seed..seed+repeat-1")
	save := fs.String("save", "", "full run only: write every run's result to this file, for -compare")
	untraced := fs.Bool("untraced", false, "full run only: skip the traced runs (calibration needs the end-to-end metrics only)")
	child := fs.Bool("child", false, "internal: this process is one measuring child")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p := params{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	var err error
	switch {
	case *compare:
		err = compareFiles(stdout, fs.Args())
	case *layers:
		err = runLayers(stdout, p)
	case *child:
		err = runChild(stdout, p)
	case *workload == "":
		err = runAll(stdout, stderr, p, *repeat, *save, !*untraced)
	default:
		err = runOne(stdout, stderr, p)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runChild is the body of a child process: set the workload up and put
// it under load. Its last line of output is the result.
func runChild(w io.Writer, p params) error {
	r, err := setup(p, processStart)
	if err != nil {
		return err
	}
	defer r.close()
	fmt.Fprintf(w, "%s seed %d: op stream %s, boot %.0f ms, preload %.2f s\n",
		p.workload, p.seed, streamHash(p.seed, r.specs), r.bootMS, r.preloadS)
	var res result
	if p.trace {
		res, err = r.measureTraced(w)
	} else {
		res, err = r.measure(w)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(res)
}

// spawn runs this program again as a measuring child, copies its output
// except the result line to w, and returns the result and the child's
// peak RSS in MB.
func spawn(w, stderr io.Writer, p params) (result, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, 0, err
	}
	trace := 0
	if p.trace {
		trace = 1
	}
	cmd := exec.Command(exe, "-child", "-workload", p.workload, "-seed", fmt.Sprint(p.seed),
		"-seconds", fmt.Sprint(p.seconds), "-trace", fmt.Sprint(trace), "-out", p.outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		w.Write(out.Bytes())
		return result{}, 0, fmt.Errorf("%s child: %w", p.workload, err)
	}
	text := strings.TrimRight(out.String(), "\n")
	last := strings.LastIndexByte(text, '\n')
	fmt.Fprint(w, text[:last+1])
	var res result
	if err := json.Unmarshal([]byte(text[last+1:]), &res); err != nil {
		return result{}, 0, fmt.Errorf("%s child: bad result line: %w", p.workload, err)
	}
	rssMB := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, rssMB, nil
}

// runOne is one run of the benchmark contract; the last line printed is
// the result.
func runOne(w, stderr io.Writer, p params) error {
	res, err := measureOne(w, stderr, p)
	if err != nil {
		return err
	}
	printMetrics(w, p, res)
	return json.NewEncoder(w).Encode(res)
}

// measureOne measures in fresh child processes: a traced run in one, an
// untraced run in parts of them (see parts), whose medians it reports.
func measureOne(w, stderr io.Writer, p params) (result, error) {
	if p.trace {
		res, _, err := spawn(w, stderr, p)
		return res, err
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	values := map[string][]float64{}
	for j := 0; j < parts; j++ {
		q := p
		q.seed, q.seconds = p.seed*1000+int64(j), p.seconds/parts
		res, rssMB, err := spawn(w, stderr, q)
		if err != nil {
			return result{}, err
		}
		res.Metrics["peak_rss_mb"] = metricValue{rssMB, "MB"}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, v := range res.Metrics {
			values[name] = append(values[name], v.Value)
		}
	}
	for _, d := range endToEnd {
		total.Metrics[d.Name] = metricValue{median(values[d.Name]), d.Unit}
	}
	return total, nil
}

func printMetrics(w io.Writer, p params, res result) {
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "%s seed %d: correct=%v attempted=%d failed=%d\n", p.workload, p.seed, res.Correct, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
}

// savedRun is one run in a -save file.
type savedRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// runAll runs every workload, untraced then (if traced is set) traced,
// each run in its own child processes, and fails if any run was incorrect.
func runAll(w, stderr io.Writer, p params, repeat int, save string, traced bool) error {
	var runs []savedRun
	bad := 0
	for _, name := range workloadNames {
		for i := 0; i < repeat; i++ {
			for trace := 0; trace <= 1 && (trace == 0 || traced); trace++ {
				q := p
				q.workload, q.seed, q.trace = name, p.seed+int64(i), trace == 1
				fmt.Fprintf(w, "== %s seed %d trace %d\n", name, q.seed, trace)
				res, err := measureOne(w, stderr, q)
				if err != nil {
					return err
				}
				printMetrics(w, q, res)
				if !res.Correct {
					bad++
				}
				runs = append(runs, savedRun{name, q.seed, trace, res})
			}
		}
	}
	if save != "" {
		data, err := json.MarshalIndent(runs, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(save, data, 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs failed their correctness checks", bad)
	}
	return nil
}

// runLayers runs only the direct layer calls, once per workload shape
// (or for the one workload named).
func runLayers(w io.Writer, p params) error {
	names := workloadNames
	if p.workload != "" {
		names = []string{p.workload}
	}
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(p.outDir, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	for _, name := range names {
		sh, err := shapeOf(name)
		if err != nil {
			return err
		}
		m, err := layerCalls(sh, scratch)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: direct layer calls, median of %d batches\n", name, layerBatches)
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, m[k], unitOf(k))
		}
	}
	return nil
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
