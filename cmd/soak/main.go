// Command soak runs a replicated key-value counter workload under
// continuous fault injection — leader switches (§3.6), replica crashes
// with recovery (§3.1), and message-loss bursts — then verifies the two
// properties that matter: every acknowledged increment was applied
// exactly once, and all replicas reconverged to identical state.
//
// -openloop swaps the closed-loop client pool for a Poisson arrival
// process through the admission gateway (DESIGN.md §15): arrivals keep
// coming at -rate regardless of what the faults do to the cluster, so
// outages turn into queueing at the edge and the gateway's shed/dedup
// machinery is exercised under crash-recovery rather than steady state.
//
//	go run ./cmd/soak -duration 10s -clients 4
//	go run ./cmd/soak -openloop -duration 10s -rate 2000
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"gridrep/internal/bench"
	"gridrep/internal/client"
	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/failure"
	"gridrep/internal/gateway"
	"gridrep/internal/netem"
	"gridrep/internal/service"
)

func main() {
	duration := flag.Duration("duration", 10*time.Second, "how long to run the workload")
	clients := flag.Int("clients", 4, "concurrent closed-loop clients")
	every := flag.Duration("every", 300*time.Millisecond, "fault injection period")
	seed := flag.Int64("seed", 42, "fault schedule seed")
	openloop := flag.Bool("openloop", false, "open-loop (Poisson) offered load through the admission gateway instead of the closed-loop pool")
	rate := flag.Float64("rate", 2000, "open-loop offered load in req/s (with -openloop)")
	workers := flag.Int("workers", 256, "open-loop session pool; sized past the edge budget so faults produce real sheds (with -openloop)")
	profile := flag.String("profile", "", "netem profile for the in-process fabric (see -profile list; e.g. wan3 soaks the geo spread)")
	profileScale := flag.Float64("profile-scale", 1, "latency scale factor applied to the chosen profile (0.05 compresses wan3 for quick runs)")
	near := flag.Bool("near", false, "serve client reads from the nearest replica's confirm quorum (DESIGN.md §16)")
	rttPlace := flag.Bool("rtt-placement", false, "feed measured per-peer RTT into leader placement so Ω prefers the lowest-aggregate-RTT replica")
	flag.Parse()

	cfg := cluster.Config{
		Service:          service.KVFactory,
		Options:          core.Options{HeartbeatInterval: 5 * time.Millisecond, RTTPlacement: *rttPlace},
		ClientRetryEvery: 50 * time.Millisecond,
		ClientDeadline:   30 * time.Second,
		NearReads:        *near,
	}
	if *profile != "" {
		p, err := netem.ProfileByName(*profile)
		if err != nil {
			log.Fatal(err)
		}
		if *profileScale != 1 {
			switch *profile {
			case "wan3":
				p = netem.WAN3Scaled(*profileScale)
			case "wan5":
				p = netem.WAN5Scaled(*profileScale)
			default:
				log.Fatalf("-profile-scale is only supported for the geo spreads (wan3, wan5), not %q", *profile)
			}
		}
		cfg.Profile = p
		// WAN geographies need timeouts derived from the profile's
		// worst one-way delay, not the LAN defaults above.
		cfg.HeartbeatInterval = 0
		cfg.ClientRetryEvery = 0
	}
	if *openloop {
		cfg.Gateway = &gateway.Config{}
	}
	c, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if _, err := c.WaitForLeader(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster up; injecting faults every %v for %v\n", *every, *duration)

	inj := failure.New(c, *seed)
	plan := failure.Plan{
		Every: *every,
		Weights: map[failure.Action]int{
			failure.ActionLeaderSwitch: 3,
			failure.ActionCrashBackup:  2,
			failure.ActionCrashLeader:  1,
			failure.ActionLossBurst:    2,
		},
		RecoverAfter: *every / 2,
		LossProb:     0.25,
		BurstLen:     *every / 4,
	}

	// acked is the count of increments known applied exactly once;
	// ambiguous counts outcomes (timeouts, sheds) whose request may or
	// may not have executed — the counter check below brackets with them.
	var acked, ambiguous int64
	if *openloop {
		acked, ambiguous = runOpenLoop(c, inj, plan, *rate, *duration, *workers)
	} else {
		acked, ambiguous = runClosedLoop(c, inj, plan, *clients, *duration)
	}

	// Recover everyone and verify.
	for _, id := range c.IDs() {
		if _, ok := c.Replica(id); !ok {
			if err := c.Restart(id); err != nil {
				log.Fatal(err)
			}
		}
	}
	if _, err := c.WaitForLeader(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	verifier, err := c.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	defer verifier.Close()
	res, err := verifier.Read(service.KVGet("ctr"))
	if err != nil {
		log.Fatal(err)
	}
	got, _ := service.KVInt(res)
	lo, hi := acked, acked+ambiguous
	fmt.Printf("counter = %d (acknowledged: %d, ambiguous: %d)\n", got, acked, ambiguous)
	if got < lo || got > hi {
		log.Fatalf("EXACTLY-ONCE VIOLATED: counter outside [%d, %d]", lo, hi)
	}

	// Convergence: wait until all replicas hold identical state.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var snaps [][]byte
		ok := true
		for _, id := range c.IDs() {
			rep, live := c.Replica(id)
			if !live {
				ok = false
				break
			}
			var snap []byte
			var chosen, applied uint64
			rep.Inspect(func(r *core.Replica) {
				snap = r.Service().Snapshot()
				chosen, applied = r.Chosen(), r.Applied()
			})
			if chosen != applied {
				ok = false
				break
			}
			snaps = append(snaps, snap)
		}
		if ok {
			for _, s := range snaps {
				if !bytes.Equal(s, snaps[0]) {
					ok = false
				}
			}
		}
		if ok && len(snaps) == len(c.IDs()) {
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("CONVERGENCE FAILED: replicas did not reconverge")
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Println("verified: exactly-once execution and replica convergence. PASS")
}

// runClosedLoop is the original soak workload: a fixed pool of
// closed-loop clients incrementing one counter as fast as faults allow.
func runClosedLoop(c *cluster.Cluster, inj *failure.Injector, plan failure.Plan, clients int, duration time.Duration) (acked, ambiguous int64) {
	inj.Start(plan)
	var oks, timeouts atomic.Int64
	var wg sync.WaitGroup
	stopAt := time.Now().Add(duration)
	for i := 0; i < clients; i++ {
		cli, err := c.NewClient()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(cli *client.Client) {
			defer wg.Done()
			defer cli.Close()
			for time.Now().Before(stopAt) {
				_, err := cli.Write(service.KVAdd("ctr", 1))
				switch {
				case err == nil:
					oks.Add(1)
				case errors.Is(err, client.ErrTimeout):
					// Ambiguous outcome; this client stops so its
					// possible in-flight retransmit stays bounded.
					timeouts.Add(1)
					return
				default:
					log.Fatalf("workload error: %v", err)
				}
			}
		}(cli)
	}
	wg.Wait()
	rep := inj.Stop()
	fmt.Printf("injected: %d leader switches, %d crashes, %d restarts, %d loss bursts\n",
		rep.Switches, rep.Crashes, rep.Restarts, rep.LossBursts)
	fmt.Printf("workload: %d acknowledged increments, %d client timeouts\n",
		oks.Load(), timeouts.Load())
	return oks.Load(), timeouts.Load()
}

// runOpenLoop offers Poisson arrivals at a fixed rate through the
// gateway while faults land. A shed is ambiguous here, not a guarantee
// of non-execution: the request was broadcast, so a backup's edge can
// shed it while the leader's edge admits and executes it — the typed
// overload only promises the CLIENT saw no ack.
func runOpenLoop(c *cluster.Cluster, inj *failure.Injector, plan failure.Plan, rate float64, duration time.Duration, workers int) (acked, ambiguous int64) {
	type outcome struct {
		p   bench.OpenLoopPoint
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		p, err := bench.MeasureOpenLoop(c, bench.OpenLoopConfig{
			Class:    bench.ClassWrite,
			Rate:     rate,
			Duration: duration,
			Workers:  workers,
			Deadline: 5 * time.Second,
			OpFor:    func(int) []byte { return service.KVAdd("ctr", 1) },
		})
		done <- outcome{p, err}
	}()
	// Hold the first fault until the harness's warmup has finished on a
	// healthy cluster. Warmup ops are real increments — exactly one
	// success per worker, counted below — but a warmup attempt that
	// timed out under a fault and was retried would apply outside that
	// accounting and break the counter bracket.
	time.Sleep(2 * time.Second)
	inj.Start(plan)
	o := <-done
	rep := inj.Stop()
	if o.err != nil {
		log.Fatalf("open-loop workload: %v", o.err)
	}
	if o.p.Errors > 0 {
		log.Fatalf("open-loop workload: %d hard errors: %+v", o.p.Errors, o.p)
	}
	fmt.Printf("injected: %d leader switches, %d crashes, %d restarts, %d loss bursts\n",
		rep.Switches, rep.Crashes, rep.Restarts, rep.LossBursts)
	fmt.Printf("workload: offered %.0f/s, goodput %.0f/s, %d acked, %d sheds, %d timeouts, %d unserved, p95 %.1fms\n",
		o.p.OfferedPerSec, o.p.GoodputPerSec, o.p.OKs, o.p.Sheds, o.p.Timeouts, o.p.Unserved, o.p.LatP95MS)
	// Counters sum over the currently-running edges only: a crashed node
	// comes back with a fresh gateway, so these undercount the run.
	edge := func(name string) int64 { return c.SumMetric("gridrep_gateway_" + name) }
	fmt.Printf("edge (live nodes): admitted=%d queued=%d sheds=%d dedup=%d dup_pass=%d expired=%d\n",
		edge("admitted_total"), edge("queued_total"),
		edge("shed_throttle_total")+edge("shed_queue_full_total")+edge("shed_queue_aged_total"),
		edge("dedup_hits_total"), edge("dup_passthrough_total"), edge("expired_inflight_total"))
	// One warmup success per worker precedes the measured window.
	return int64(o.p.OKs + workers), int64(o.p.Sheds + o.p.Timeouts)
}
