// Command benchpaxos runs fig-overload, the open-loop goodput ablation
// of the admission-controlling gateway (DESIGN.md §15), on the wall
// clock: Poisson offered load swept past closed-loop saturation, once
// with the gateway in front of every replica and once without. Its
// subject is the gateway, which the simulator does not model. Every row
// of the paper's evaluation (§4) comes from the simulator instead, in
// virtual time (internal/core/paper_test.go; `make paper`).
//
//	go run ./cmd/benchpaxos -exp fig-overload
//	go run ./cmd/benchpaxos -exp fig-overload -quick -json out.json
//
// -quick shortens the sweep for a smoke run; -json writes the points
// machine-readably; -cpuprofile/-memprofile capture pprof profiles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/gateway"
	"gridrep/internal/netem"
)

var (
	quick      = flag.Bool("quick", false, "shorten the sweep for a fast smoke run")
	jsonPath   = flag.String("json", "", "write machine-readable results to this file")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	admission  = flag.String("admission", "both", "fig-overload: run with the gateway's admission control on, off, or both")
)

func startCluster(cfg cluster.Config) *cluster.Cluster {
	c, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := c.WaitForLeader(15 * time.Second); err != nil {
		log.Fatal(err)
	}
	return c
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

// ExpResult is everything one experiment measured.
type ExpResult struct {
	ID         string          `json:"id"`
	Paper      string          `json:"paper"`
	ElapsedS   float64         `json:"elapsed_s"`
	GoMaxProcs int             `json:"gomaxprocs,omitempty"`
	Overload   []OverloadPoint `json:"overload,omitempty"`
}

// Report is the top-level -json document.
type Report struct {
	GeneratedAt string      `json:"generated_at"`
	Quick       bool        `json:"quick"`
	GoMaxProcs  int         `json:"gomaxprocs"`
	Experiments []ExpResult `json:"experiments"`
}

func main() {
	exp := flag.String("exp", "fig-overload", "experiment id (only fig-overload)")
	flag.Parse()
	const id, paper = "fig-overload", "open-loop goodput vs offered load, admission on/off (DESIGN.md §15)"
	if *exp != id {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (only %s; the paper's rows are `make paper`)\n", *exp, id)
		os.Exit(2)
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

	report := Report{GeneratedAt: time.Now().UTC().Format(time.RFC3339), Quick: *quick, GoMaxProcs: runtime.GOMAXPROCS(0)}
	fmt.Printf("=== %s — %s ===\n", id, paper)
	res := ExpResult{ID: id, Paper: paper, GoMaxProcs: runtime.GOMAXPROCS(0)}
	start := time.Now()
	figOverload(&res)
	res.ElapsedS = time.Since(start).Seconds()
	report.Experiments = append(report.Experiments, res)
	fmt.Printf("--- %s done in %v ---\n\n", id, time.Since(start).Round(time.Millisecond))

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

// overloadLabProfile is the substrate for fig-overload: a latency-bound
// cluster whose capacity does not depend on the host CPU. NoBatch mode
// pins throughput to one accept wave per request, waves are serial,
// and the ~500µs replica links price each wave at about a
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
		Options: core.Options{NoBatch: true},
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
	sat, err := measureThroughput(base, 32, 2000)
	base.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  closed-loop saturation %.0f req/s (32 clients, no gateway, overload-lab substrate)\n", sat)

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
		edge := func(name string) int64 { return c.SumMetric("gridrep_gateway_" + name) }
		sheds := func() int64 {
			return edge("shed_throttle_total") + edge("shed_queue_full_total") + edge("shed_queue_aged_total")
		}
		var prevSheds int64
		for _, m := range multiples {
			// Workers must exceed the edge's budget+queue capacity
			// (otherwise the pool itself becomes the admission controller
			// and the gateway never sees enough concurrency to shed) AND
			// exceed capacity x deadline (otherwise the pool caps
			// in-protocol queueing below the point where the no-admission
			// mode starts missing deadlines, hiding the collapse the
			// ablation exists to show).
			p, err := measureOpenLoop(c, openLoopConfig{
				Rate:       m * sat,
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
				s := sheds()
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
			fmt.Printf("  %s: edge totals admitted=%d queued=%d sheds=%d dedup=%d dup_pass=%d\n",
				label, edge("admitted_total"), edge("queued_total"), sheds(), edge("dedup_hits_total"), edge("dup_passthrough_total"))
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
