package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// The protocol-cost golden (testdata/protocol_cost.txt): what the
// protocol spends per operation — messages and bytes by type, waves and
// requests per wave, flushes, catch-up and snapshot bytes, and response
// times — in four fixed-seed scenarios that mirror the benchmark's
// workloads, the DESIGN.md §5 ablations, the wave-fragmentation probe,
// and the §4 tables. All of it is virtual time, so it is exact and
// moves only when the protocol does; rewrite it with
//
//	go test ./internal/core -run TestProtocolCostGolden -update

const goldenPath = "testdata/protocol_cost.txt"

var update = flag.Bool("update", false, "rewrite testdata/protocol_cost.txt from the running code")

// costClient is one client of a scenario: next builds its n-th operation
// (n from 1), count bounds how many it issues, and pace, when set, is
// the interval between the starts of consecutive operations.
type costClient struct {
	next  func(n int) (class string, reqs []wire.Request)
	count int
	pace  time.Duration
}

// costRun is what one scenario measured.
type costRun struct {
	s      *sim
	ops    map[string]int // operations answered OK, per class
	lat    map[string][]time.Duration
	failed int
	chosen uint64 // instances chosen during the run
}

func (r *costRun) total() (n int) {
	for _, k := range r.ops {
		n += k
	}
	return n
}

// maxChosen is the highest chosen instance of any live replica.
func (s *sim) maxChosen() (c uint64) {
	for _, n := range s.nodes {
		if n.r != nil {
			c = max(c, n.r.Chosen())
		}
	}
	return c
}

// wavesCommitted sums the waves every incarnation committed as leader.
func (s *sim) wavesCommitted() (n uint64) {
	for _, r := range s.replicas() {
		n += r.stats.wavesCommitted.Load()
	}
	return n
}

// replicas is every incarnation the run booted, crashed ones included.
func (s *sim) replicas() []*Replica {
	rs := slices.Clone(s.retired)
	for _, n := range s.nodes {
		if n.r != nil {
			rs = append(rs, n.r)
		}
	}
	return rs
}

// runCost drives clients until each has issued its count, and waits for
// the replicas to converge.
func runCost(s *sim, clients []costClient) *costRun {
	s.t.Helper()
	run := &costRun{s: s, ops: map[string]int{}, lat: map[string][]time.Duration{}}
	from, left := s.maxChosen(), len(clients)
	for _, cc := range clients {
		c, n := s.newClient(), 0
		var issue func()
		issue = func() {
			if n == cc.count {
				left--
				return
			}
			n++
			class, reqs := cc.next(n)
			start := s.now
			c.chain(reqs, func(ok bool) {
				if ok {
					run.ops[class]++
					run.lat[class] = append(run.lat[class], s.now.Sub(start))
				} else {
					run.failed++
				}
				if wait := cc.pace - s.now.Sub(start); wait > 0 {
					s.after(wait, issue)
				} else {
					issue()
				}
			})
		}
		issue()
	}
	if !s.runUntil(time.Minute, func() bool { return left == 0 }) {
		s.t.Fatalf("%d clients unfinished", left)
	}
	if !s.runUntil(5*time.Second, s.converged) {
		s.t.Fatal("the replicas did not converge")
	}
	if len(s.violations) > 0 {
		s.t.Fatal(strings.Join(s.violations, "\n"))
	}
	run.chosen = s.maxChosen() - from
	return run
}

// costReport renders golden rows: one "name value" line each.
type costReport struct{ b bytes.Buffer }

func (c *costReport) section(title string) { fmt.Fprintf(&c.b, "\n## %s\n", title) }

func (c *costReport) row(name string, v float64) { fmt.Fprintf(&c.b, "%-40s %.3f\n", name, v) }

func (c *costReport) dur(name string, d time.Duration) { fmt.Fprintf(&c.b, "%-40s %v\n", name, d) }

// scenario writes a run's rows, per operation unless named otherwise.
func (c *costReport) scenario(run *costRun) {
	s, ops := run.s, float64(run.total())
	writes := float64(run.ops["write"])
	var classes []string
	for k := range run.ops {
		classes = append(classes, k)
	}
	slices.Sort(classes)
	for _, k := range classes {
		c.row("ops."+k, float64(run.ops[k]))
	}
	c.row("ops.failed", float64(run.failed))
	var msgs, all uint64
	var types []wire.MsgType
	for t := range s.msgs {
		types = append(types, t)
	}
	slices.Sort(types)
	for _, t := range types {
		msgs, all = msgs+s.msgs[t], all+s.bytes[t]
	}
	c.row("transport.msgs_per_op", float64(msgs)/ops)
	for _, t := range types {
		c.row("transport.msgs_per_op."+t.String(), float64(s.msgs[t])/ops)
	}
	for _, t := range types {
		c.row("wire.bytes_per_op."+t.String(), float64(s.bytes[t])/ops)
	}
	if writes > 0 {
		c.row("wire.bytes_per_write", float64(all)/writes)
		c.row("storage.fsyncs_per_write", float64(s.flushes)/float64(len(s.nodes))/writes)
	}
	var snaps uint64
	for _, r := range s.replicas() {
		snaps += r.stats.snapSaves.Load()
	}
	waves := s.wavesCommitted()
	c.row("core.waves", float64(waves))
	c.row("core.reqs_per_wave", float64(run.chosen)/float64(waves))
	c.row("core.catchup_bytes_per_op", float64(s.bytes[wire.MsgCatchUpResp]+s.bytes[wire.MsgSnapChunk])/ops)
	c.row("core.snapshot_saves", float64(snaps))
	for _, k := range classes {
		lat := slices.Clone(run.lat[k])
		slices.Sort(lat)
		c.dur("latency_p50."+k, lat[len(lat)/2])
		c.dur("latency_max."+k, lat[len(lat)-1])
	}
}

// kvService returns a KV preloaded with keys values of size bytes each.
func kvService(keys, size int) func(wire.NodeID, int) service.Service {
	return func(wire.NodeID, int) service.Service {
		kv := service.NewKV()
		for i := 0; i < keys; i++ {
			kv.Execute(service.KVPut(fmt.Sprint("key-", i), bytes.Repeat([]byte{'p'}, size)))
		}
		return kv
	}
}

// writers is count clients each issuing per writes built by op.
func writers(count, per int, op func(client, n int) []byte) []costClient {
	cs := make([]costClient, count)
	for i := range cs {
		cs[i] = costClient{count: per, next: func(n int) (string, []wire.Request) {
			return "write", []wire.Request{{Kind: wire.KindWrite, Op: op(i, n)}}
		}}
	}
	return cs
}

func noopWrite(int, int) []byte { return service.NoopWriteOp }

func noop(wire.NodeID, int) service.Service { return service.NewNoop() }

// The four scenarios mirror the benchmark's workloads at simulator
// scale, with the service-time model on.

// durableWrite: 16 sessions writing 256 B values over disks whose
// flushes take 0.2-2 ms (tcp-durable-write, less the gateway).
func durableWrite(t testing.TB) *costRun {
	p := netem.Sysnet()
	s := newSim(t, simConfig{seed: 1, profile: &p, cost: serviceTime, retry: time.Second})
	s.awaitLeader(time.Second)
	val := bytes.Repeat([]byte{'v'}, 256)
	return runCost(s, writers(16, 40, func(client, n int) []byte {
		return service.KVPut(fmt.Sprintf("c%d-k%d", client, n%64), val)
	}))
}

// memMixed: readers beside writers on a preloaded 256 KB KV, no disk
// (tcp-mem-mixed).
func memMixed(t testing.TB) *costRun {
	p := netem.Sysnet()
	s := newSim(t, simConfig{seed: 2, profile: &p, noDisk: true, cost: serviceTime, retry: time.Second,
		service: kvService(256, 1024)})
	s.awaitLeader(time.Second)
	val := bytes.Repeat([]byte{'w'}, 256)
	clients := writers(8, 50, func(client, n int) []byte {
		return service.KVPut(fmt.Sprint("key-", (client*50+n)%256), val)
	})
	for i := 0; i < 8; i++ {
		clients = append(clients, costClient{count: 50, next: func(n int) (string, []wire.Request) {
			return "read", []wire.Request{{Kind: wire.KindRead, Op: service.KVGet(fmt.Sprint("key-", (i*37+n)%256))}}
		}})
	}
	return runCost(s, clients)
}

// wanSchedTxn: the scheduler on the paper's WAN profile, with status
// reads, job submissions and T-Paxos submit-and-dispatch transactions
// (wan-sched-txn).
func wanSchedTxn(t testing.TB) *costRun {
	p := netem.WAN(0)
	s := newSim(t, simConfig{seed: 3, profile: &p, noDisk: true, cost: serviceTime, retry: time.Second,
		service: func(wire.NodeID, int) service.Service { return service.NewSched() }})
	s.awaitLeader(10 * time.Second)
	var clients []costClient
	for i := 0; i < 4; i++ {
		txns := uint64(0)
		clients = append(clients, costClient{count: 12, next: func(n int) (string, []wire.Request) {
			job := fmt.Sprintf("c%d-j%d", i, n)
			switch n % 3 {
			case 0:
				return "read", []wire.Request{{Kind: wire.KindRead, Op: service.SchedStatus()}}
			case 1:
				return "write", []wire.Request{{Kind: wire.KindWrite, Op: service.SchedSubmit(job, int64(n%4))}}
			}
			txns++
			return "txn", []wire.Request{
				{Kind: wire.KindTxnOp, Txn: txns, TxnSeq: 0, Op: service.SchedSubmit(job, 9)},
				{Kind: wire.KindTxnOp, Txn: txns, TxnSeq: 1, Op: service.SchedDispatch()},
				{Kind: wire.KindTxnCommit, Txn: txns, TxnSeq: 2},
			}
		}})
	}
	return runCost(s, clients)
}

// lanFailover: four clients each starting a write every 10 ms over disks,
// while the leader is crashed at 1.5 s and 4 s and restarted a second
// later (lan-failover).
func lanFailover(t testing.TB) *costRun {
	p := netem.Sysnet()
	s := newSim(t, simConfig{seed: 4, profile: &p, cost: serviceTime, retry: 10 * time.Millisecond,
		service: kvService(64, 64)})
	s.awaitLeader(time.Second)
	for _, at := range []time.Duration{1500 * time.Millisecond, 4 * time.Second} {
		s.after(at, func() {
			if lead, ok := s.leader(); ok {
				s.crash(lead)
				s.after(time.Second, func() { s.restart(lead) })
			}
		})
	}
	val := bytes.Repeat([]byte{'f'}, 64)
	clients := writers(4, 600, func(client, n int) []byte {
		return service.KVPut(fmt.Sprint("key-", (client*600+n)%64), val)
	})
	for i := range clients {
		clients[i].pace = 10 * time.Millisecond
	}
	return runCost(s, clients)
}

// ablations writes the DESIGN.md §5 rows.
func ablations(t testing.TB, c *costReport) {
	p := netem.Sysnet()
	c.section("ablation: batched vs single-instance accept waves (Sysnet, noop, 16 writers x 40)")
	for _, nb := range []bool{false, true} {
		s := newSim(t, simConfig{seed: 5, profile: &p, noDisk: true, cost: serviceTime, retry: time.Second,
			service: noop, opts: Options{NoBatch: nb}})
		s.awaitLeader(time.Second)
		start := s.now
		run := runCost(s, writers(16, 40, noopWrite))
		name := map[bool]string{false: "batch", true: "nobatch"}[nb]
		c.row("core.reqs_per_wave."+name, float64(run.chosen)/float64(s.wavesCommitted()))
		c.row("writes_per_s."+name, float64(run.total())/s.now.Sub(start).Seconds())
	}
	c.section("ablation: state-transfer mode (16 KB KV, 4 writers x 50 puts of 64 B)")
	for _, mode := range []string{"delta", "full"} {
		svc := kvService(64, 256)
		if mode == "full" {
			delta := svc
			svc = func(id wire.NodeID, inc int) service.Service { return struct{ service.Service }{delta(id, inc)} }
		}
		s := newSim(t, simConfig{seed: 6, profile: &p, noDisk: true, retry: time.Second, service: svc})
		s.awaitLeader(time.Second)
		val := bytes.Repeat([]byte{'m'}, 64)
		run := runCost(s, writers(4, 50, func(client, n int) []byte { return service.KVPut(fmt.Sprint("key-", (client*50+n)%64), val) }))
		c.row("wire.accept_bytes_per_write."+mode, float64(s.bytes[wire.MsgAccept])/float64(run.ops["write"]))
	}
	c.section("ablation: Accept bytes per write vs value size (delta mode, 1 writer x 50)")
	for _, size := range []int{64, 1024, 16384} {
		s := newSim(t, simConfig{seed: 7, profile: &p, noDisk: true, retry: time.Second})
		s.awaitLeader(time.Second)
		val := bytes.Repeat([]byte{'z'}, size)
		run := runCost(s, writers(1, 50, func(_, n int) []byte { return service.KVPut(fmt.Sprint("k", n%8), val) }))
		c.row(fmt.Sprintf("wire.accept_bytes_per_write.%dB", size), float64(s.bytes[wire.MsgAccept])/float64(run.ops["write"]))
	}
	c.section("ablation: a leader switch inside each of 6 T-Paxos transactions, one plain write after each (KV)")
	aborts, commits, writes := leaderSwitchSensitivity(t)
	c.row("txn.aborted", float64(aborts))
	c.row("txn.committed", float64(commits))
	c.row("writes.ok", float64(writes))
}

// probeWaves runs 8 writers x 250 writes over disks and returns the
// leader's waves started and its in-flight high-water mark.
func probeWaves(t testing.TB) (started uint64, inFlightMax int64) {
	p := netem.Sysnet()
	s := newSim(t, simConfig{seed: 8, profile: &p, cost: serviceTime, retry: time.Second,
		service: noop})
	lead := s.awaitLeader(time.Second)
	runCost(s, writers(8, 250, noopWrite))
	r := s.nodes[lead].r
	return r.stats.wavesStarted.Load(), r.stats.maxWavesInFlight.Load()
}

// buildGolden runs every scenario and renders the golden around the
// paper's rows p.
func buildGolden(t testing.TB, p *paperResult) []byte {
	var c costReport
	fmt.Fprintln(&c.b, "# Protocol cost per operation in virtual time (internal/core/cost_test.go).")
	fmt.Fprintln(&c.b, "# Rewrite: go test ./internal/core -run TestProtocolCostGolden -update")
	for _, sc := range []struct {
		title string
		run   func(testing.TB) *costRun
	}{
		{"durable-write: Sysnet, 0.2-2 ms flushes, KV, 16 writers x 40 puts of 256 B", durableWrite},
		{"mem-mixed: Sysnet, no disk, 256 KB KV, 8 writers x 50 puts of 256 B beside 8 readers x 50", memMixed},
		{"wan-sched-txn: WAN, no disk, Sched, 4 clients x 12 of status read / submit / T-Paxos submit+dispatch", wanSchedTxn},
		{"lan-failover: Sysnet, 0.2-2 ms flushes, 4 writers every 10 ms, leader crashed at 1.5 s and 4 s for 1 s", lanFailover},
	} {
		c.section(sc.title)
		c.scenario(sc.run(t))
	}
	ablations(t, &c)
	c.section("wave fragmentation probe: Sysnet, 0.2-2 ms flushes, noop, 8 writers x 250")
	started, inFlight := probeWaves(t)
	c.row("core.waves_started.depth1", float64(started))
	c.row("core.waves_in_flight_max.depth1", float64(inFlight))
	c.section("the paper's §4 rows (paper_test.go; predicates in TestPaper)")
	c.b.WriteString(renderPaper(p, false))
	return c.b.Bytes()
}

var (
	goldenOnce sync.Once
	golden     []byte
)

// TestProtocolCostGolden compares the protocol cost with the committed
// golden; -update rewrites it.
func TestProtocolCostGolden(t *testing.T) {
	goldenOnce.Do(func() { golden = buildGolden(t, paper(t)) })
	if *update {
		if err := os.WriteFile(goldenPath, golden, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, want) {
		t.Fatalf("protocol cost differs from %s (rerun with -update if intended):\n%s", goldenPath, lineDiff(want, golden))
	}
}

// lineDiff lists the lines only one rendering has, in order: the
// golden's lines are name-value rows, so a changed row shows as its old
// and its new line.
func lineDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	var b strings.Builder
	for _, side := range []struct {
		mark     string
		from, in []string
	}{{"-", w, g}, {"+", g, w}} {
		for _, l := range side.from {
			if !slices.Contains(side.in, l) {
				fmt.Fprintf(&b, "%s%s\n", side.mark, l)
			}
		}
	}
	return b.String()
}

// TestProtocolCostDeterministic: the golden is a function of the code
// alone. Built twice in one process, at GOMAXPROCS 1 and 4, it is byte
// for byte the same.
func TestProtocolCostDeterministic(t *testing.T) {
	if raceEnabled {
		t.Skip("two more golden builds; the race tier runs the golden once")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := buildGolden(t, runPaper(t))
	runtime.GOMAXPROCS(4)
	four := buildGolden(t, runPaper(t))
	if !bytes.Equal(one, four) {
		t.Fatalf("GOMAXPROCS 1 and 4 built different goldens:\n%s", lineDiff(one, four))
	}
}

// TestProbeWaveFragmentation guards batching under the one-wave rule
// (DESIGN.md §10): under a fixed closed-loop write load of 8 writers the
// leader keeps exactly one wave in flight, and each wave carries what
// queued while its predecessor was in flight, so 2000 writes take at
// most a third as many waves.
func TestProbeWaveFragmentation(t *testing.T) {
	started, inFlight := probeWaves(t)
	t.Logf("%d waves for 2000 writes, %d in flight at most", started, inFlight)
	if inFlight != 1 {
		t.Errorf("%d waves in flight at most, want 1", inFlight)
	}
	if started > 2000/3 {
		t.Errorf("%d waves for 2000 writes: batches fragmented", started)
	}
}
