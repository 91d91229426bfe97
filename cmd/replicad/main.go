// Command replicad runs one service replica over real TCP, the
// multi-process deployment mode (the paper's prototype likewise spoke raw
// TCP between all processes, §4).
//
// Start a 3-replica key-value service on one machine:
//
//	replicad -id 0 -peers 0=:7000,1=:7001,2=:7002 -service kv &
//	replicad -id 1 -peers 0=:7000,1=:7001,2=:7002 -service kv &
//	replicad -id 2 -peers 0=:7000,1=:7001,2=:7002 -service kv &
//
// Then talk to it with gridclient. Pass -wal to survive crashes.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"gridrep"
)

func main() {
	id := flag.Uint("id", 0, "this replica's ID (index into -peers)")
	peersFlag := flag.String("peers", "", "comma-separated id=host:port list for all replicas")
	svcName := flag.String("service", "kv", "service to replicate: kv, broker, sched, noop")
	groups := flag.Int("groups", 1, "independent consensus groups hosted by this process (sharded key space; 1 = classic single-group deployment)")
	wal := flag.String("wal", "", "write-ahead log path (empty = in-memory storage)")
	syncFlag := flag.String("sync", "batch", "WAL sync policy: always, batch, or interval")
	syncEvery := flag.Duration("syncinterval", 0, "fsync period for -sync interval (default 2ms)")
	seed := flag.Int64("seed", time.Now().UnixNano(), "RNG seed for nondeterministic services")
	var o gridrep.Options // the protocol tunables, bound straight into the struct the server takes
	flag.DurationVar(&o.HeartbeatInterval, "heartbeat", 25*time.Millisecond, "Ω heartbeat interval")
	flag.IntVar(&o.PipelineDepth, "pipeline", 1, "max accept waves in flight while leading (1 = serial protocol)")
	flag.DurationVar(&o.CommitFlushDelay, "commit-flush", 0, "commit notification batching window (0 = default 1ms; widen on WAN links)")
	flag.BoolVar(&o.RTTPlacement, "rtt-placement", false, "fold measured peer RTTs into leader placement: the cluster converges on the best-connected replica regardless of boot order (DESIGN.md 16)")
	flag.Uint64Var(&o.SnapshotEvery, "snapshot-every", 0, "durable service snapshot cadence in applied instances (0 = default 1024)")
	flag.Uint64Var(&o.PruneKeep, "prune-keep", 0, "WAL instances retained below the cluster-min applied watermark (0 = default 1024)")
	join := flag.Bool("join", false, "join a running cluster as a learner: catch up via snapshot streaming, then get promoted to voter by a committed config entry")
	gatewayOn := flag.Bool("gateway", false, "enable the client-facing edge: admission control, per-tenant fair queueing, typed overload sheds, session dedup window")
	gwInflight := flag.Int("gateway-inflight", 0, "global admitted-but-unanswered budget (0 = pipeline depth x groups x 64)")
	gwQueue := flag.Int("gateway-queue", 0, "per-tenant fair-queue length (0 = 2x the in-flight budget)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admission rate in requests/second (0 = no per-tenant throttle)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant token bucket capacity (0 = max(16, in-flight budget))")
	statsEvery := flag.Duration("stats", 0, "log transport and replica counters at this interval (0 = off)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text; ?format=json) and /healthz on this host:port (empty = off)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file (stopped on shutdown)")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on shutdown")
	flag.Parse()

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
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Print(err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
			f.Close()
		}()
	}

	peers, err := ParsePeers(*peersFlag)
	if err != nil {
		log.Fatal(err)
	}
	if _, ok := peers[gridrep.NodeID(*id)]; !ok {
		log.Fatalf("replicad: -id %d not present in -peers", *id)
	}

	// Each consensus group owns an independent slice of the key space,
	// so every group gets its own service instance.
	var newSvc gridrep.ServiceFactory
	switch *svcName {
	case "kv":
		newSvc = func() gridrep.Service { return gridrep.NewKV() }
	case "broker":
		newSvc = func() gridrep.Service { return gridrep.NewBroker(*seed) }
	case "sched":
		newSvc = func() gridrep.Service { return gridrep.NewSched() }
	case "noop":
		newSvc = func() gridrep.Service { return gridrep.NewNoop() }
	default:
		log.Fatalf("replicad: unknown service %q", *svcName)
	}
	pol, err := gridrep.ParseSyncPolicy(*syncFlag)
	if err != nil {
		log.Fatalf("replicad: %v", err)
	}
	sopts := gridrep.ServerOptions{
		ID:         gridrep.NodeID(*id),
		Peers:      peers,
		NewService: newSvc,
		Groups:     *groups,
		WALPath:    *wal,
		SyncPolicy: pol,
		SyncEvery:  *syncEvery,
		Options:    o,
		Join:       *join,
	}
	if *gatewayOn {
		sopts.Gateway = &gridrep.GatewayOptions{
			MaxInFlight: *gwInflight,
			QueueLen:    *gwQueue,
			TenantRate:  *tenantRate,
			TenantBurst: *tenantBurst,
		}
	}
	srv, err := gridrep.ListenAndServe(sopts)
	if err != nil {
		log.Fatal(err)
	}
	mode := "serving"
	if *join {
		mode = "joining as learner,"
	}
	if *groups > 1 {
		fmt.Printf("replica %d %s %s on %s (peers: %d, groups: %d)\n", *id, mode, *svcName, srv.Addr(), len(peers), *groups)
	} else {
		fmt.Printf("replica %d %s %s on %s (peers: %d)\n", *id, mode, *svcName, srv.Addr(), len(peers))
	}

	var dbg *http.Server
	if *metricsAddr != "" {
		dbg = &http.Server{Addr: *metricsAddr, Handler: srv.DebugHandler()}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("replicad: metrics endpoint: %v", err)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics (health: /healthz)\n", *metricsAddr)
	}

	// Every counter is read by name from the process's metrics registry.
	v := func(name string) int64 { return srv.Metrics().Value("gridrep_" + name) }
	stopStats := make(chan struct{})
	if *statsEvery > 0 {
		go func() {
			ticker := time.NewTicker(*statsEvery)
			defer ticker.Stop()
			for {
				select {
				case <-stopStats:
					return
				case <-ticker.C:
					log.Printf("transport: peers=%d depth=%d dials=%d fails=%d reconnects=%d sent=%d recvd=%d rtt=%v drops{queue=%d route=%d write=%d recv=%d reply=%d(shed=%d slow=%d)}",
						v("tcp_connected_peers"), v("tcp_queue_depth"), v("tcp_dials_total"), v("tcp_dial_failures_total"),
						v("tcp_reconnects_total"), v("tcp_sent_total"), v("tcp_recvd_total"), time.Duration(v("tcp_last_rtt_nanoseconds")),
						v("tcp_drop_queue_full_total"), v("tcp_drop_no_route_total"), v("tcp_drop_write_fail_total"), v("tcp_drop_recv_overflow_total"),
						v("tcp_drop_reply_overflow_total"), v("tcp_drop_reply_shed_total"), v("tcp_drop_reply_slow_client_total"))
					if *gatewayOn {
						log.Printf("gateway: admitted=%d queued=%d dedup=%d dup_pass=%d sheds{throttle=%d queue_full=%d aged=%d} expired=%d inflight=%d depth=%d sessions=%d",
							v("gateway_admitted_total"), v("gateway_queued_total"), v("gateway_dedup_hits_total"), v("gateway_dup_passthrough_total"),
							v("gateway_shed_throttle_total"), v("gateway_shed_queue_full_total"), v("gateway_shed_queue_aged_total"),
							v("gateway_expired_inflight_total"), v("gateway_inflight"), v("gateway_queued"), v("gateway_sessions"))
					}
					log.Printf("replica: pipeline=%d inflight=%d/%d waves{started=%d committed=%d} rollbacks{demotions=%d waves=%d recovery_discarded=%d} deferred_drops=%d",
						o.PipelineDepth, v("waves_in_flight"), v("waves_in_flight_max"),
						v("waves_started_total"), v("waves_committed_total"),
						v("spec_rollbacks_total"), v("waves_rolled_back_total"), v("recovery_discarded_total"),
						v("deferred_drops_total"))
				}
			}
		}()
	}

	// Graceful shutdown on SIGTERM/SIGINT: stop the protocol loop, flush
	// the staged WAL batch, join any in-flight snapshot rewrite (the
	// store close does both), and close the metrics listener — so a
	// supervised restart replays the whole local log instead of losing
	// the staged tail to the crash model.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	close(stopStats)
	// The drop total sums the five causes; the shed and slow-client
	// counters split reply overflow and would count it twice.
	var drops int64
	for _, cause := range []string{"queue_full", "no_route", "write_fail", "recv_overflow", "reply_overflow"} {
		drops += v("tcp_drop_" + cause + "_total")
	}
	log.Printf("transport final: dials=%d reconnects=%d drops=%d", v("tcp_dials_total"), v("tcp_reconnects_total"), drops)
	if dbg != nil {
		dbg.Close()
	}
	if err := srv.Shutdown(); err != nil {
		log.Printf("replicad: shutdown: %v", err)
	}
}

// ParsePeers parses "0=host:port,1=host:port,..." into an address book.
func ParsePeers(s string) (map[gridrep.NodeID]string, error) {
	if s == "" {
		return nil, fmt.Errorf("replicad: -peers is required")
	}
	out := make(map[gridrep.NodeID]string)
	for _, part := range splitComma(s) {
		var id uint32
		var addr string
		if n, err := fmt.Sscanf(part, "%d=%s", &id, &addr); n != 2 || err != nil {
			return nil, fmt.Errorf("replicad: bad peer entry %q (want id=host:port)", part)
		}
		out[gridrep.NodeID(id)] = addr
	}
	return out, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
