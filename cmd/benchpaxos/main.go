// Command benchpaxos regenerates every quantitative result of the
// paper's evaluation (§4): the Sysnet / Berkeley→Princeton / WAN response
// times, the throughput curves of Figures 5-8, Table 1's transaction
// response times, the transaction throughput curves of Figure 9, and the
// t>1 ablation of §4.3.
//
//	go run ./cmd/benchpaxos -exp all          # everything (slow)
//	go run ./cmd/benchpaxos -exp rrt-sysnet   # one experiment
//	go run ./cmd/benchpaxos -exp all -quick   # CI smoke: ~30s full suite
//	go run ./cmd/benchpaxos -exp fig6 -json out.json
//
// Experiment IDs: rrt-sysnet, fig5, fig6, rrt-b2p, fig7, rrt-wan, fig8,
// table1, fig9a, fig9b, t2, pipeline, fig6-sharded, shard-sweep,
// multicore-sweep, fig-overload, fig-wan.
//
// -groups N runs every cluster with N consensus groups per process
// (DESIGN.md §13); fig6-sharded and shard-sweep exercise sharding
// explicitly, and -gomaxprocs widens the scheduler for the sweep.
//
// -quick shrinks both the sample counts and the client grids so the full
// suite finishes in tens of seconds while preserving every paper-shape
// criterion (ordering of the three request classes, the Figure 6 knee,
// the B2P coincidence, the WAN read/write gap). Defaults keep the paper
// parameters. -json writes the same numbers machine-readably, one object
// per experiment, for the repo's BENCH_*.json perf trajectory.
// -cpuprofile/-memprofile capture pprof profiles of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"sort"

	"gridrep/internal/bench"
	"gridrep/internal/client"
	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/gateway"
	"gridrep/internal/metrics"
	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

var (
	quick      = flag.Bool("quick", false, "reduce sample counts and client grids for a fast smoke run")
	samples    = flag.Int("samples", 0, "override RRT sample count (0 = default)")
	jsonPath   = flag.String("json", "", "write machine-readable results to this file")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file")

	// Durable mode: every replica runs over a real storage.File WAL
	// (Sync on) in a temp dir, so the numbers include the fsync path the
	// in-memory default hides. (The per-record-vs-group-commit
	// ablation lives in the internal/storage microbenchmarks.)
	durable    = flag.Bool("durable", false, "run over file-backed WALs (storage.File, Sync on) in a temp dir")
	syncPolicy = flag.String("syncpolicy", "batch", "durable-mode sync policy: always|batch|interval")
	syncEvery  = flag.Duration("syncinterval", 0, "durable-mode fsync interval for -syncpolicy interval (default 2ms)")

	// Pipelining: -pipeline sets PipelineDepth for every cluster an
	// experiment builds (1 = the paper's serial wave protocol); the
	// dedicated `pipeline` experiment sweeps depths itself.
	pipeline = flag.Int("pipeline", 1, "accept-wave pipeline depth for all experiments (1 = serial)")

	// Sharding (DESIGN.md §13): -groups sets the consensus-group count
	// for every cluster an experiment builds (1 = the classic
	// single-group deployment); fig6-sharded and shard-sweep pick their
	// own counts. -gomaxprocs overrides the Go scheduler's processor
	// count — sharded clusters host N independent event loops per
	// process, so they can use more than one core.
	groups       = flag.Int("groups", 1, "consensus groups per replica process for all experiments")
	gomaxprocsFl = flag.Int("gomaxprocs", 0, "override GOMAXPROCS for the whole run (0 = runtime default)")

	// Overload (PR 9): fig-overload sweeps open-loop offered load past
	// saturation with the admission-controlling gateway on and/or off.
	admission = flag.String("admission", "both", "fig-overload: run with the gateway's admission control on, off, or both")
)

// scale returns n, or a reduced count under -quick.
func scale(n int) int {
	if *quick {
		if n > 100 {
			return n / 20
		}
		if n > 10 {
			return n / 4
		}
	}
	return n
}

// grid returns the full client grid, or first/middle/last under -quick.
func grid(full []int) []int {
	if !*quick || len(full) <= 3 {
		return full
	}
	return []int{full[0], full[len(full)/2], full[len(full)-1]}
}

func rrtSamples() int {
	if *samples > 0 {
		return *samples
	}
	if *quick {
		return 30
	}
	return 400
}

var (
	durableMu   sync.Mutex
	durableRoot string
	durableSeq  int
)

// clusterConfig assembles the shared cluster parameters, including the
// -durable WAL directory (a fresh subdir per cluster, removed at exit).
func clusterConfig(profile netem.Profile, n int) cluster.Config {
	cfg := cluster.Config{N: n, Profile: profile, Seed: 1,
		ClientDeadline: 120 * time.Second, Groups: *groups,
		Options: core.Options{PipelineDepth: *pipeline}}
	if !*durable {
		return cfg
	}
	pol, err := storage.ParseSyncPolicy(*syncPolicy)
	if err != nil {
		log.Fatal(err)
	}
	durableMu.Lock()
	if durableRoot == "" {
		dir, err := os.MkdirTemp("", "benchpaxos-wal-")
		if err != nil {
			log.Fatal(err)
		}
		durableRoot = dir
	}
	durableSeq++
	cfg.DataDir = filepath.Join(durableRoot, fmt.Sprintf("c%03d", durableSeq))
	durableMu.Unlock()
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		log.Fatal(err)
	}
	cfg.SyncPolicy = pol
	cfg.SyncInterval = *syncEvery
	return cfg
}

func newCluster(profile netem.Profile, n int) *cluster.Cluster {
	return startCluster(clusterConfig(profile, n))
}

func startCluster(cfg cluster.Config) *cluster.Cluster {
	c, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if c.Groups() > 1 {
		if _, err := c.WaitForAllLeaders(30 * time.Second); err != nil {
			log.Fatal(err)
		}
	} else if _, err := c.WaitForLeader(15 * time.Second); err != nil {
		log.Fatal(err)
	}
	return c
}

// --- machine-readable results (-json) ---

// RRTResult is one response-time row (per request class or txn mode).
type RRTResult struct {
	Label  string  `json:"label"`
	N      int     `json:"n"`
	MeanMS float64 `json:"mean_ms"`
	CI99   float64 `json:"ci99_ms"`
	P50    float64 `json:"p50_ms"`
	P95    float64 `json:"p95_ms"`
}

// SeriesPoint is one (clients, throughput) sample, with the run's
// client-observed latency quantiles (zero/omitted for txn series, which
// predate the latency capture).
type SeriesPoint struct {
	Clients   int     `json:"clients"`
	PerSec    float64 `json:"per_sec"`
	LatMeanMS float64 `json:"lat_mean_ms,omitempty"`
	LatP50MS  float64 `json:"lat_p50_ms,omitempty"`
	LatP95MS  float64 `json:"lat_p95_ms,omitempty"`
	LatP99MS  float64 `json:"lat_p99_ms,omitempty"`
}

// SeriesResult is one throughput curve of a figure. GoMaxProcs records
// the effective scheduler width while the series ran — sweeps that
// mutate GOMAXPROCS mid-experiment (shard-sweep, multicore-sweep) stamp
// it per row, because the report header only captures the value at
// startup.
type SeriesResult struct {
	Label      string        `json:"label"`
	GoMaxProcs int           `json:"gomaxprocs,omitempty"`
	Points     []SeriesPoint `json:"points"`
}

// PhaseResult summarizes one leader-side phase latency histogram after a
// write series — the paper-style breakdown of where a request's time
// goes (execute, propose→quorum, commit, admission→reply, WAL fsync).
type PhaseResult struct {
	Phase  string  `json:"phase"`
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// OverloadPoint is one open-loop rate point of fig-overload: offered
// load (a multiple of the measured closed-loop saturation throughput)
// against goodput, shed fraction, and arrival-to-ack latency.
type OverloadPoint struct {
	Label         string  `json:"label"` // admission=on | admission=off
	RateMultiple  float64 `json:"rate_multiple"`
	TargetRate    float64 `json:"target_rate_per_sec"`
	OfferedPerSec float64 `json:"offered_per_sec"`
	GoodputPerSec float64 `json:"goodput_per_sec"`
	ShedFrac      float64 `json:"shed_frac"`
	EdgeSheds     int     `json:"edge_sheds,omitempty"`
	Timeouts      int     `json:"timeouts"`
	Unserved      int     `json:"unserved"`
	LatP50MS      float64 `json:"lat_p50_ms"`
	LatP95MS      float64 `json:"lat_p95_ms"`
	LatP99MS      float64 `json:"lat_p99_ms"`
}

// ExpResult is everything one experiment measured. GoMaxProcs is the
// scheduler width when the experiment started (per-row values live on
// SeriesResult for experiments that sweep it).
type ExpResult struct {
	ID         string          `json:"id"`
	Paper      string          `json:"paper"`
	ElapsedS   float64         `json:"elapsed_s"`
	GoMaxProcs int             `json:"gomaxprocs,omitempty"`
	RRT        []RRTResult     `json:"rrt,omitempty"`
	Series     []SeriesResult  `json:"series,omitempty"`
	Phases     []PhaseResult   `json:"phases,omitempty"`
	Overload   []OverloadPoint `json:"overload,omitempty"`
	Replicas   []int           `json:"replicas,omitempty"`
}

// Report is the top-level -json document.
type Report struct {
	GeneratedAt string      `json:"generated_at"`
	Quick       bool        `json:"quick"`
	GoMaxProcs  int         `json:"gomaxprocs"`
	Durable     bool        `json:"durable,omitempty"`
	SyncPolicy  string      `json:"sync_policy,omitempty"`
	Pipeline    int         `json:"pipeline_depth,omitempty"`
	Groups      int         `json:"groups,omitempty"`
	Experiments []ExpResult `json:"experiments"`
}

var report = Report{}

func statsRow(label string, s bench.Stats) RRTResult {
	return RRTResult{Label: label, N: s.N, MeanMS: s.Mean, CI99: s.CI99, P50: s.P50, P95: s.P95}
}

func main() {
	exp := flag.String("exp", "all", "experiment id (see package doc), comma-separated list, or 'all'")
	flag.Parse()
	want := make(map[string]bool)
	for _, id := range strings.Split(*exp, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}

	exps := []struct {
		id    string
		run   func(res *ExpResult)
		paper string
	}{
		{"rrt-sysnet", rrtSysnet, "§4.1 text: 0.181 / 0.263 / 0.338 ms"},
		{"fig5", fig5, "Figure 5: throughput on Sysnet, 1-16 clients"},
		{"fig6", fig6, "Figure 6: throughput, 8-128 clients (peak 32-64)"},
		{"rrt-b2p", rrtB2P, "§4.1 text: 91.85 / 92.79 / 93.13 ms"},
		{"fig7", fig7, "Figure 7: throughput Berkeley→Princeton"},
		{"rrt-wan", rrtWAN, "§4.1 text: 70.82 / 75.49 / 106.73 ms"},
		{"fig8", fig8, "Figure 8: throughput on WAN"},
		{"table1", table1, "Table 1: transaction response time"},
		{"fig9a", fig9a, "Figure 9a: txn throughput, 3 req/txn"},
		{"fig9b", fig9b, "Figure 9b: txn throughput, 5 req/txn"},
		{"t2", t2, "§4.3: replica-count ablation on WAN"},
		{"pipeline", pipelineSweep, "PR 4: write throughput vs PipelineDepth (batching-vs-pipelining tradeoff)"},
		{"fig6-sharded", fig6Sharded, "PR 7: Figure 6 write curve, single-group vs sharded (DESIGN.md §13)"},
		{"shard-sweep", shardSweep, "PR 7: write throughput vs consensus groups × GOMAXPROCS"},
		{"multicore-sweep", multicoreSweep, "PR 8: read & write throughput vs GOMAXPROCS × groups (DESIGN.md §14)"},
		{"fig-overload", figOverload, "PR 9: open-loop goodput vs offered load, admission on/off (DESIGN.md §15)"},
		{"fig-wan", figWAN, "PR 10: per-region read latency on the geo spreads, leader vs nearest-replica reads (DESIGN.md §16)"},
	}
	if *gomaxprocsFl > 0 {
		runtime.GOMAXPROCS(*gomaxprocsFl)
	}
	report.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	report.Quick = *quick
	report.GoMaxProcs = runtime.GOMAXPROCS(0)
	report.Pipeline = *pipeline
	report.Groups = *groups
	if *durable {
		report.Durable = true
		report.SyncPolicy = *syncPolicy
		fmt.Printf("durable mode: storage.File WALs, policy=%s, group commit, off-loop persister\n\n", *syncPolicy)
	}
	defer func() {
		if durableRoot != "" {
			os.RemoveAll(durableRoot)
		}
	}()

	found := false
	for _, e := range exps {
		if want["all"] || want[e.id] {
			found = true
			fmt.Printf("=== %s — paper: %s ===\n", e.id, e.paper)
			res := ExpResult{ID: e.id, Paper: e.paper, GoMaxProcs: runtime.GOMAXPROCS(0)}
			start := time.Now()
			e.run(&res)
			res.ElapsedS = time.Since(start).Seconds()
			report.Experiments = append(report.Experiments, res)
			fmt.Printf("--- %s done in %v ---\n\n", e.id, time.Since(start).Round(time.Millisecond))
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
}

func rrtRow(c *cluster.Cluster, class bench.ReqClass) bench.Stats {
	s, err := bench.MeasureRRT(c, class, rrtSamples())
	if err != nil {
		log.Fatal(err)
	}
	return s
}

func printRRT(c *cluster.Cluster, res *ExpResult) (orig, read, write bench.Stats) {
	orig = rrtRow(c, bench.ClassOriginal)
	read = rrtRow(c, bench.ClassRead)
	write = rrtRow(c, bench.ClassWrite)
	fmt.Printf("  original: %s\n", orig.FmtMS())
	fmt.Printf("  read    : %s\n", read.FmtMS())
	fmt.Printf("  write   : %s\n", write.FmtMS())
	res.RRT = append(res.RRT,
		statsRow("original", orig), statsRow("read", read), statsRow("write", write))
	return
}

func rrtSysnet(res *ExpResult) {
	c := newCluster(netem.Sysnet(), 3)
	defer c.Close()
	_, read, write := printRRT(c, res)
	fmt.Printf("  X-Paxos read vs basic write: %.1f%% lower RRT (paper: 22%%)\n",
		100*(1-read.Mean/write.Mean))
}

func rrtB2P(res *ExpResult) {
	c := newCluster(netem.B2P(), 3)
	defer c.Close()
	printRRT(c, res)
	fmt.Println("  expectation: all three within ~1.5% (replication ~free here)")
}

func rrtWAN(res *ExpResult) {
	c := newCluster(netem.WAN(0), 3)
	defer c.Close()
	_, read, write := printRRT(c, res)
	fmt.Printf("  X-Paxos read vs basic write: %.1f%% lower RRT (paper: 29%%)\n",
		100*(1-read.Mean/write.Mean))
}

func throughputFigure(res *ExpResult, profile netem.Profile, clients []int, total int) {
	clients = grid(clients)
	fmt.Printf("  %-8s", "clients")
	for _, cc := range clients {
		fmt.Printf("%10d", cc)
	}
	fmt.Println()
	for _, class := range []bench.ReqClass{bench.ClassRead, bench.ClassWrite, bench.ClassOriginal} {
		// A fresh cluster per series keeps the log short and the runs
		// independent, like the paper's separate samples.
		c := newCluster(profile, 3)
		pts, err := bench.Series(c, class, clients, total)
		var phases []PhaseResult
		if err == nil && class == bench.ClassWrite {
			phases = leaderPhases(c)
		}
		c.Close()
		if err != nil {
			log.Fatal(err)
		}
		sr := SeriesResult{Label: class.String()}
		fmt.Printf("  %-8s", class.String())
		for _, p := range pts {
			fmt.Printf("%10.0f", p.PerSecond)
			sr.Points = append(sr.Points, SeriesPoint{Clients: p.Clients, PerSec: p.PerSecond,
				LatMeanMS: p.LatMeanMS, LatP50MS: p.LatP50MS, LatP95MS: p.LatP95MS, LatP99MS: p.LatP99MS})
		}
		fmt.Println(" req/s")
		fmt.Printf("  %-8s", "")
		for _, p := range pts {
			fmt.Printf("%10s", fmt.Sprintf("%.1f/%.1f", p.LatP50MS, p.LatP95MS))
		}
		fmt.Println(" p50/p95 ms")
		res.Series = append(res.Series, sr)
		if len(phases) > 0 {
			res.Phases = phases
			fmt.Println("  write phase latency (leader, cumulative over series):")
			fmt.Printf("    %-8s %10s %10s %10s %10s %10s\n", "phase", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms")
			for _, ph := range phases {
				fmt.Printf("    %-8s %10d %10.3f %10.3f %10.3f %10.3f\n",
					ph.Phase, ph.Count, ph.MeanMS, ph.P50MS, ph.P95MS, ph.P99MS)
			}
		}
	}
}

// phaseOrder maps leader-side registry histograms to display labels, in
// request-lifecycle order: batch execution, propose→quorum, propose→
// commit-eligible, admission→reply, and the WAL fsync inside the wave
// (durable mode only — absent on in-memory storage).
var phaseOrder = []struct{ name, label string }{
	{"gridrep_execute_latency_seconds", "execute"},
	{"gridrep_quorum_latency_seconds", "quorum"},
	{"gridrep_commit_latency_seconds", "commit"},
	{"gridrep_request_latency_seconds", "request"},
	{"gridrep_wal_fsync_latency_seconds", "fsync"},
}

// leaderPhases summarizes the leader's per-phase latency histograms —
// the breakdown benchpaxos prints after each write series.
func leaderPhases(c *cluster.Cluster) []PhaseResult {
	lead, ok := c.Leader()
	if !ok {
		return nil
	}
	rep, ok := c.Replica(lead)
	if !ok {
		return nil
	}
	snap := rep.Metrics().Snapshot()
	var out []PhaseResult
	for _, ph := range phaseOrder {
		m, ok := metrics.Find(snap, ph.name)
		if !ok || m.Hist == nil || m.Hist.Count == 0 {
			continue
		}
		h := m.Hist
		out = append(out, PhaseResult{Phase: ph.label, Count: h.Count,
			MeanMS: h.MS(h.Mean()), P50MS: h.MS(h.P50()), P95MS: h.MS(h.P95()), P99MS: h.MS(h.P99())})
	}
	return out
}

func fig5(res *ExpResult) {
	// The paper used 1000 total requests per sample and averaged
	// hundreds of samples; one longer run per point gives equivalent
	// stability here.
	throughputFigure(res, netem.Sysnet(), []int{1, 2, 4, 8, 16}, scale(8000))
}

func fig6(res *ExpResult) {
	// The paper used 1000 requests per sample; on this substrate each
	// point then lasts only tens of milliseconds and scheduler jitter
	// dominates, so the sweep uses a longer run per point.
	throughputFigure(res, netem.Sysnet(), []int{8, 16, 32, 64, 128}, scale(12000))
}

func fig7(res *ExpResult) {
	throughputFigure(res, netem.B2P(), []int{1, 2, 4, 8, 16}, scale(200))
}

func fig8(res *ExpResult) {
	throughputFigure(res, netem.WAN(0), []int{1, 2, 4, 8, 16}, scale(200))
}

func table1(res *ExpResult) {
	c := newCluster(netem.Sysnet(), 3)
	defer c.Close()
	n := scale(200)
	fmt.Println("  Operation   Req/tran   Avg TRT        99% CI")
	type row struct {
		mode  bench.TxnMode
		nReqs int
	}
	rows := []row{
		{bench.TxnReadWrite, 3}, {bench.TxnReadWrite, 5},
		{bench.TxnWriteOnly, 3}, {bench.TxnWriteOnly, 5},
		{bench.TxnOptimized, 3}, {bench.TxnOptimized, 5},
	}
	results := make(map[row]bench.Stats)
	for _, r := range rows {
		s, err := bench.MeasureTxnRT(c, r.mode, r.nReqs, n)
		if err != nil {
			log.Fatal(err)
		}
		results[r] = s
		fmt.Printf("  %-12s %6d   %8.3f ms   ±%.3f ms\n", r.mode, r.nReqs, s.Mean, s.CI99)
		res.RRT = append(res.RRT, statsRow(fmt.Sprintf("%s/%d", r.mode, r.nReqs), s))
	}
	for _, k := range []int{3, 5} {
		rw := results[row{bench.TxnReadWrite, k}].Mean
		wo := results[row{bench.TxnWriteOnly, k}].Mean
		op := results[row{bench.TxnOptimized, k}].Mean
		fmt.Printf("  T-Paxos reduction, %d req/txn: %.0f%% vs read/write, %.0f%% vs write-only\n",
			k, 100*(1-op/rw), 100*(1-op/wo))
	}
	fmt.Println("  (paper: 28%/34% at 3 req, 31%/39% at 5 req)")
}

func txnFigure(res *ExpResult, nReqs int) {
	clients := grid([]int{1, 2, 4, 8, 16})
	total := scale(500)
	fmt.Printf("  %-12s", "clients")
	for _, cc := range clients {
		fmt.Printf("%10d", cc)
	}
	fmt.Println()
	for _, mode := range []bench.TxnMode{bench.TxnReadWrite, bench.TxnWriteOnly, bench.TxnOptimized} {
		c := newCluster(netem.Sysnet(), 3)
		pts, err := bench.TxnSeries(c, mode, nReqs, clients, total)
		c.Close()
		if err != nil {
			log.Fatal(err)
		}
		sr := SeriesResult{Label: mode.String()}
		fmt.Printf("  %-12s", mode.String())
		for _, p := range pts {
			fmt.Printf("%10.0f", p.PerSecond)
			sr.Points = append(sr.Points, SeriesPoint{Clients: p.Clients, PerSec: p.PerSecond})
		}
		fmt.Println(" txn/s")
		res.Series = append(res.Series, sr)
	}
}

func fig9a(res *ExpResult) { txnFigure(res, 3) }
func fig9b(res *ExpResult) { txnFigure(res, 5) }

// t2 explores §4.3: replica counts beyond t=1 on the WAN profile, where
// X-Paxos's extra wide-area confirm paths matter most.
func t2(res *ExpResult) {
	n := scale(60)
	counts := []int{3, 5, 7}
	if *quick {
		counts = []int{3, 5}
	}
	res.Replicas = counts
	fmt.Println("  replicas   original        read            write")
	for _, nrep := range counts {
		c, err := cluster.New(clusterConfig(wanProfileN(), nrep))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := c.WaitForLeader(15 * time.Second); err != nil {
			log.Fatal(err)
		}
		var row []string
		for _, class := range []bench.ReqClass{bench.ClassOriginal, bench.ClassRead, bench.ClassWrite} {
			s, err := bench.MeasureRRT(c, class, n)
			if err != nil {
				log.Fatal(err)
			}
			row = append(row, fmt.Sprintf("%7.2f±%.2f", s.Mean, s.CI99))
			res.RRT = append(res.RRT, statsRow(fmt.Sprintf("n%d/%s", nrep, class), s))
		}
		c.Close()
		fmt.Printf("  %8d   %s ms\n", nrep, strings.Join(row, "   "))
	}
	fmt.Println("  expectation: client latency grows with t for X-Paxos (more WAN")
	fmt.Println("  confirm paths, higher delay variance) but barely for writes (§4.3)")
}

// wanProfileN is the WAN profile for arbitrary replica counts: WAN(0)
// already maps every replica other than 0 to the remote-site class, so
// it generalizes as-is.
func wanProfileN() netem.Profile { return netem.WAN(0) }

// pipelineSweep measures durable write throughput against the
// speculative pipeline depth (DESIGN.md §10). At low client counts a
// serial leader spends most of each wave waiting on the quorum RTT and
// the group-commit fsync; deeper pipelines overlap those waits, while at
// high client counts batching already fills the pipe and depth matters
// less. Run with -durable so the fsync is part of the wave latency being
// overlapped.
func pipelineSweep(res *ExpResult) {
	depths := []int{1, 2, 4, 8}
	if *quick {
		depths = []int{1, 4}
	}
	clients := grid([]int{1, 2, 4, 8, 16, 32})
	total := scale(4000)
	fmt.Printf("  %-8s", "clients")
	for _, cc := range clients {
		fmt.Printf("%10d", cc)
	}
	fmt.Println()
	for _, depth := range depths {
		cfg := clusterConfig(netem.Sysnet(), 3)
		cfg.PipelineDepth = depth
		c, err := cluster.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := c.WaitForLeader(15 * time.Second); err != nil {
			log.Fatal(err)
		}
		pts, err := bench.Series(c, bench.ClassWrite, clients, total)
		c.Close()
		if err != nil {
			log.Fatal(err)
		}
		sr := SeriesResult{Label: fmt.Sprintf("depth=%d", depth)}
		fmt.Printf("  depth=%-2d", depth)
		for _, p := range pts {
			fmt.Printf("%10.0f", p.PerSecond)
			sr.Points = append(sr.Points, SeriesPoint{Clients: p.Clients, PerSec: p.PerSecond})
		}
		fmt.Println(" req/s")
		res.Series = append(res.Series, sr)
	}
	fmt.Println("  expectation: depth=1 is the serial paper protocol; deeper")
	fmt.Println("  pipelines win where wave cadence is latency-bound — mid-to-high")
	fmt.Println("  client counts when fsync dominates the round trip (this host),")
	fmt.Println("  low counts when the network RTT does (WAN profiles) — and must")
	fmt.Println("  never lose to depth=1: the launch gate falls back to the serial")
	fmt.Println("  schedule rather than fragment batches")
}

// fig6Sharded reruns the Figure 6 write curve single-group and sharded
// (DESIGN.md §13) on the same substrate: N independent consensus groups
// per process, keyed ops spreading the closed-loop workers across
// groups. The sharded group count follows -groups (default 4 when
// -groups is left at 1, so the variant compares against something).
func fig6Sharded(res *ExpResult) {
	g := *groups
	if g <= 1 {
		g = 4
	}
	clients := grid([]int{8, 16, 32, 64, 128})
	total := scale(12000)
	fmt.Printf("  %-12s", "clients")
	for _, cc := range clients {
		fmt.Printf("%10d", cc)
	}
	fmt.Println()
	for _, gg := range []int{1, g} {
		cfg := clusterConfig(netem.Sysnet(), 3)
		cfg.Groups = gg
		c := startCluster(cfg)
		pts, err := bench.Series(c, bench.ClassWrite, clients, total)
		c.Close()
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("write/groups=%d", gg)
		sr := SeriesResult{Label: label}
		fmt.Printf("  %-12s", label)
		for _, p := range pts {
			fmt.Printf("%10.0f", p.PerSecond)
			sr.Points = append(sr.Points, SeriesPoint{Clients: p.Clients, PerSec: p.PerSecond,
				LatMeanMS: p.LatMeanMS, LatP50MS: p.LatP50MS, LatP95MS: p.LatP95MS, LatP99MS: p.LatP99MS})
		}
		fmt.Println(" req/s")
		res.Series = append(res.Series, sr)
	}
	fmt.Println("  expectation: sharding helps where one group's serial wave cadence")
	fmt.Println("  is the bottleneck (durable mode: the fsync pipeline; multicore:")
	fmt.Println("  the single event loop); on one core with in-memory WALs the two")
	fmt.Println("  curves converge — N groups share the only CPU")
}

// shardSweep is the PR 7 acceptance sweep: durable write throughput
// across consensus-group count × GOMAXPROCS at a fixed client count.
// Run with -durable so each group owns a real WAL family and the fsync
// decoupling between groups is part of what is measured.
func shardSweep(res *ExpResult) {
	groupCounts := []int{1, 2, 4}
	procCounts := []int{1, 2, 4}
	if *quick {
		groupCounts = []int{1, 4}
		procCounts = []int{1, 4}
	}
	clients := 32
	total := scale(8000)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	fmt.Printf("  %d clients, %d writes per point; host CPUs: %d\n", clients, total, runtime.NumCPU())
	fmt.Printf("  %-20s %12s %12s %12s\n", "", "req/s", "p50 ms", "p95 ms")
	for _, procs := range procCounts {
		runtime.GOMAXPROCS(procs)
		for _, gg := range groupCounts {
			cfg := clusterConfig(netem.Sysnet(), 3)
			cfg.Groups = gg
			c := startCluster(cfg)
			pt, err := bench.MeasureThroughputPoint(c, bench.ClassWrite, clients, total)
			c.Close()
			if err != nil {
				log.Fatal(err)
			}
			label := fmt.Sprintf("groups=%d/procs=%d", gg, procs)
			fmt.Printf("  %-20s %12.0f %12.2f %12.2f\n", label, pt.PerSecond, pt.LatP50MS, pt.LatP95MS)
			// Per-row effective GOMAXPROCS: this sweep mutates it, so the
			// report-header value (captured at startup) is wrong for every
			// row after the first proc count.
			res.Series = append(res.Series, SeriesResult{Label: label, GoMaxProcs: runtime.GOMAXPROCS(0),
				Points: []SeriesPoint{{
					Clients: clients, PerSec: pt.PerSecond,
					LatMeanMS: pt.LatMeanMS, LatP50MS: pt.LatP50MS, LatP95MS: pt.LatP95MS, LatP99MS: pt.LatP99MS}}})
		}
	}
	fmt.Println("  expectation: groups×procs scale-out needs (a) a real fsync per")
	fmt.Println("  group to decouple (run -durable) and (b) spare cores for the")
	fmt.Println("  extra event loops; with one host CPU the sweep documents the")
	fmt.Println("  substrate ceiling rather than a speedup")
}

// multicoreSweep is the PR 8 acceptance sweep: read and write
// throughput across GOMAXPROCS × consensus groups at a fixed client
// count. Reads exercise the parallel read path (DESIGN.md §14): past
// the X-Paxos commit barrier they execute concurrently on the replica's
// read worker pool against an immutable state view, so extra processors
// lift read throughput without touching the write order. Writes stay
// strictly ordered per group; their scaling axis is the group count
// (shard-sweep's territory), which the groups dimension here
// cross-checks. Run with -durable so writes carry their fsync cost.
func multicoreSweep(res *ExpResult) {
	procCounts := []int{1, 2, 4, 8}
	groupCounts := []int{1, 4}
	if *quick {
		procCounts = []int{1, 4}
		groupCounts = []int{1}
	}
	clients := 32
	total := scale(8000)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	fmt.Printf("  %d clients, %d requests per point; host CPUs: %d\n", clients, total, runtime.NumCPU())
	fmt.Printf("  %-28s %12s %12s %12s\n", "", "req/s", "p50 ms", "p95 ms")
	for _, procs := range procCounts {
		runtime.GOMAXPROCS(procs)
		for _, gg := range groupCounts {
			for _, class := range []bench.ReqClass{bench.ClassRead, bench.ClassWrite} {
				cfg := clusterConfig(netem.Sysnet(), 3)
				cfg.Groups = gg
				c := startCluster(cfg)
				pt, err := bench.MeasureThroughputPoint(c, class, clients, total)
				c.Close()
				if err != nil {
					log.Fatal(err)
				}
				label := fmt.Sprintf("%s/procs=%d/groups=%d", class, procs, gg)
				fmt.Printf("  %-28s %12.0f %12.2f %12.2f\n", label, pt.PerSecond, pt.LatP50MS, pt.LatP95MS)
				res.Series = append(res.Series, SeriesResult{Label: label, GoMaxProcs: runtime.GOMAXPROCS(0),
					Points: []SeriesPoint{{
						Clients: clients, PerSec: pt.PerSecond,
						LatMeanMS: pt.LatMeanMS, LatP50MS: pt.LatP50MS, LatP95MS: pt.LatP95MS, LatP99MS: pt.LatP99MS}}})
			}
		}
	}
	fmt.Println("  expectation: reads scale with procs once the pool engages")
	fmt.Println("  (GOMAXPROCS>1) and spare cores exist; writes scale with groups,")
	fmt.Println("  not procs. With one host CPU every extra proc only adds")
	fmt.Println("  scheduler overlap, so the sweep documents the substrate ceiling")
	fmt.Println("  (EXPERIMENTS.md, multi-core chapter) rather than a speedup")
}

// figWAN is the PR 10 acceptance experiment: per-region read latency on
// the modernized geo spreads (wan3/wan5), once with every read served by
// the leader (the classic X-Paxos path) and once with nearest-replica
// reads (DESIGN.md §16). One client per region measures reads against
// the same profile and seed in both modes; the per-region p50/p95 make
// the geography visible — the leader's region is fast either way, while
// remote regions drop from a cross-continent round trip to a local one.
// Writes (leader path, mode-independent) are measured once for context.
// -quick compresses the geography with WAN3Scaled/WAN5Scaled instead of
// shrinking only the sample count, so even CI runs keep the real latency
// shape.
func figWAN(res *ExpResult) {
	scalef := 1.0
	samples := scale(60)
	if *quick {
		scalef = 0.05
	}
	profs := []struct {
		name string
		p    netem.Profile
		n    int
	}{
		{"wan3", netem.WAN3Scaled(scalef), 3},
		{"wan5", netem.WAN5Scaled(scalef), 5},
	}
	for _, pr := range profs {
		type regionRow struct {
			leader, near, write []time.Duration
		}
		rows := make([]regionRow, pr.n)
		var lead wire.NodeID
		for _, near := range []bool{false, true} {
			cfg := clusterConfig(pr.p, pr.n)
			cfg.Service = service.KVFactory // the ops below are KV ops
			cfg.NearReads = near
			c := startCluster(cfg)
			lead, _ = c.Leader()
			clis := regionClients(c, pr.n)
			for r, cli := range clis {
				// Warm the session (and the near replica's applied index)
				// before timing.
				if _, err := cli.Write(service.KVPut("k", []byte("v"))); err != nil {
					log.Fatal(err)
				}
				for i := 0; i < samples; i++ {
					t := time.Now()
					if _, err := cli.Read(service.KVGet("k")); err != nil {
						log.Fatal(err)
					}
					d := time.Since(t)
					if near {
						rows[r].near = append(rows[r].near, d)
					} else {
						rows[r].leader = append(rows[r].leader, d)
					}
				}
				if !near {
					for i := 0; i < samples; i++ {
						t := time.Now()
						if _, err := cli.Write(service.KVPut("k", []byte("v"))); err != nil {
							log.Fatal(err)
						}
						rows[r].write = append(rows[r].write, time.Since(t))
					}
				}
				cli.Close()
			}
			c.Close()
		}
		fmt.Printf("  %s: %d samples per region per mode, latencies x%.2f, leader at %s\n",
			pr.name, samples, scalef, netem.RegionName(int(lead)%pr.n))
		fmt.Printf("  %-14s %18s %18s %18s\n", "region", "leader-read p50/p95", "near-read p50/p95", "write p50/p95")
		nearWins := 0
		for r := 0; r < pr.n; r++ {
			lp50, lp95 := pctiles(rows[r].leader)
			np50, np95 := pctiles(rows[r].near)
			wp50, wp95 := pctiles(rows[r].write)
			fmt.Printf("  %-14s %18s %18s %18s\n", netem.RegionName(r),
				fmtP(lp50, lp95), fmtP(np50, np95), fmtP(wp50, wp95))
			if np50 < lp50 && np95 < lp95 {
				nearWins++
			}
			res.RRT = append(res.RRT,
				RRTResult{Label: fmt.Sprintf("%s/%s/leader-read", pr.name, netem.RegionName(r)),
					N: len(rows[r].leader), P50: lp50, P95: lp95},
				RRTResult{Label: fmt.Sprintf("%s/%s/near-read", pr.name, netem.RegionName(r)),
					N: len(rows[r].near), P50: np50, P95: np95},
				RRTResult{Label: fmt.Sprintf("%s/%s/write", pr.name, netem.RegionName(r)),
					N: len(rows[r].write), P50: wp50, P95: wp95})
		}
		fmt.Printf("  near reads beat leader reads on p50+p95 in %d/%d regions\n", nearWins, pr.n)
	}
	fmt.Println("  expectation: in the leader's region the two read modes tie; in")
	fmt.Println("  every other region nearest-replica reads replace the cross-")
	fmt.Println("  continent hop to the leader with a local confirm quorum, so both")
	fmt.Println("  p50 and p95 drop — while writes stay on the leader path either way")
}

// regionClients returns one client per region of an n-region geo spread,
// indexed by region. Cluster client IDs are sequential, and wanSpread
// maps client c to region (c - ClientIDBase) mod n, so n consecutive
// clients cover every region; surplus ones are closed.
func regionClients(c *cluster.Cluster, n int) []*client.Client {
	out := make([]*client.Client, n)
	for have := 0; have < n; {
		cli, err := c.NewClient()
		if err != nil {
			log.Fatal(err)
		}
		r := int(cli.ID()-wire.ClientIDBase) % n
		if out[r] == nil {
			out[r] = cli
			have++
		} else {
			cli.Close()
		}
	}
	return out
}

// pctiles returns the p50 and p95 of a sample set, in milliseconds.
func pctiles(ds []time.Duration) (p50, p95 float64) {
	if len(ds) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) float64 {
		return float64(sorted[int(q*float64(len(sorted)-1))]) / 1e6
	}
	return at(0.50), at(0.95)
}

func fmtP(p50, p95 float64) string {
	return fmt.Sprintf("%.1f/%.1f ms", p50, p95)
}

// overloadLabProfile is the substrate for fig-overload: a latency-bound
// cluster whose capacity does not depend on the host CPU. NoBatch mode
// pins throughput to one accept wave per request, PipelineDepth 1 makes
// waves serial, and the ~500µs replica links price each wave at about a
// millisecond — roughly 1k writes/s of capacity regardless of how fast
// the machine is. That matters because the open-loop driver shares the
// process with the cluster: against the normal batching substrate the
// saturation point is a CPU ceiling, so driving 2-4x past it starves
// the replicas' own event loops and the measurement collapses into
// scheduler noise (single-core runs produced goodput anywhere from 6k
// to 43k req/s at the same nominal point). Against a latency-bound
// ceiling, 4x overload is a few thousand arrivals per second — trivially
// cheap to generate — and every drop of goodput is the protocol's
// queueing, not the harness fighting the cluster for cycles.
func overloadLabProfile() netem.Profile {
	return netem.Profile{
		Name:      "overload-lab",
		MaxOneWay: 2 * time.Millisecond,
		Configure: func(m *netem.Model) {
			cr := netem.Latency{Base: 100 * time.Microsecond, Jitter: 10 * time.Microsecond}
			rr := netem.Latency{Base: 500 * time.Microsecond, Jitter: 20 * time.Microsecond}
			m.SetLinkSym(netem.ClassClient, netem.ClassReplica, cr)
			m.SetLinkSym(netem.ClassReplica, netem.ClassReplica, rr)
			m.SetLinkSym(netem.ClassClient, netem.ClassClient, cr)
		},
	}
}

func overloadLabConfig(gw *gateway.Config) cluster.Config {
	return cluster.Config{
		N: 3, Profile: overloadLabProfile(), Seed: 1,
		ClientDeadline: 120 * time.Second, Gateway: gw,
		Options: core.Options{PipelineDepth: 1, NoBatch: true},
	}
}

// figOverload is the PR 9 acceptance experiment: open-loop (Poisson)
// offered load swept past closed-loop saturation, once with the
// admission-controlling gateway in front of every replica and once
// without. With admission on, the edge sheds the excess with typed
// retry-after hints and goodput must hold near the closed-loop peak at
// 2-4x saturation; with it off, every arrival enters the protocol, the
// leader's queue grows past the client deadline, and goodput collapses
// into timeouts — the leader keeps burning consensus waves on requests
// whose clients already gave up.
func figOverload(res *ExpResult) {
	modes := []bool{true, false}
	switch *admission {
	case "on":
		modes = []bool{true}
	case "off":
		modes = []bool{false}
	case "both":
	default:
		log.Fatalf("bad -admission %q (want on, off, or both)", *admission)
	}
	multiples := []float64{0.5, 1, 2, 3, 4}
	dur := 3 * time.Second
	if *quick {
		multiples = []float64{1, 2, 4}
		dur = 2 * time.Second
	}

	// One gateway-less closed-loop measurement anchors both series: the
	// same absolute offered rates are replayed with and without
	// admission, so the two curves differ only in the edge. The sample
	// is deliberately not -quick-scaled — a noisy saturation estimate
	// would shift every rate point of the ablation.
	base := startCluster(overloadLabConfig(nil))
	sat, err := bench.MeasureThroughputPoint(base, bench.ClassWrite, 32, 2000)
	base.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  closed-loop saturation %.0f req/s (32 clients, no gateway, overload-lab substrate)\n", sat.PerSecond)

	for _, withGateway := range modes {
		label := "admission=off"
		var gw *gateway.Config
		if withGateway {
			label = "admission=on"
			gw = &gateway.Config{}
		}
		c := startCluster(overloadLabConfig(gw))
		fmt.Printf("  %-14s %10s %10s %8s %10s %8s %8s %8s %8s\n",
			label, "offered/s", "goodput/s", "shed%", "edge-shed", "t/o", "p50 ms", "p95 ms", "p99 ms")
		var prevSheds uint64
		for _, m := range multiples {
			// Workers must exceed the edge's budget+queue capacity
			// (otherwise the pool itself becomes the admission controller
			// and the gateway never sees enough concurrency to shed) AND
			// exceed capacity x deadline (otherwise the pool caps
			// in-protocol queueing below the point where the no-admission
			// mode starts missing deadlines, hiding the collapse the
			// ablation exists to show).
			p, err := bench.MeasureOpenLoop(c, bench.OpenLoopConfig{
				Class:      bench.ClassWrite,
				Rate:       m * sat.PerSecond,
				Duration:   dur,
				Workers:    2048,
				Deadline:   time.Second,
				RetryEvery: 250 * time.Millisecond,
			})
			if err != nil {
				c.Close()
				log.Fatalf("%s at %.1fx: %v", label, m, err)
			}
			edgeSheds := 0
			if withGateway {
				s := c.GatewayStats().Sheds()
				edgeSheds = int(s - prevSheds)
				prevSheds = s
			}
			fmt.Printf("  %4.1fx%9s %10.0f %10.0f %7.1f%% %10d %8d %8.1f %8.1f %8.1f\n",
				m, "", p.OfferedPerSec, p.GoodputPerSec, 100*p.ShedFrac, edgeSheds,
				p.Timeouts, p.LatP50MS, p.LatP95MS, p.LatP99MS)
			res.Overload = append(res.Overload, OverloadPoint{
				Label: label, RateMultiple: m, TargetRate: p.TargetRate,
				OfferedPerSec: p.OfferedPerSec, GoodputPerSec: p.GoodputPerSec,
				ShedFrac: p.ShedFrac, EdgeSheds: edgeSheds,
				Timeouts: p.Timeouts, Unserved: p.Unserved,
				LatP50MS: p.LatP50MS, LatP95MS: p.LatP95MS, LatP99MS: p.LatP99MS,
			})
		}
		if withGateway {
			gs := c.GatewayStats()
			fmt.Printf("  %s: edge totals admitted=%d queued=%d sheds=%d dedup=%d dup_pass=%d\n",
				label, gs.Admitted, gs.Queued, gs.Sheds(), gs.DedupHits, gs.DupPassthrough)
		}
		c.Close()
	}
	fmt.Println("  expectation: with admission on, goodput at 2-4x saturation holds")
	fmt.Println("  within ~10% of its peak with zero timeouts and bounded tail")
	fmt.Println("  latency — the edge sheds the excess with typed retry-after hints")
	fmt.Println("  before it can queue inside the protocol; with admission off the")
	fmt.Println("  same offered load piles into the leader queue, replies miss the")
	fmt.Println("  client deadline, and goodput collapses into timeouts")
}
