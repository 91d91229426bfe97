package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"testing"
	"time"

	"gridrep/internal/client"
	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/metrics"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

// msgTrace counts delivered messages by type and remembers whether any
// CatchUpResp carried state; it is a cluster.Config.Tracer.
type msgTrace struct {
	mu        sync.Mutex
	count     map[wire.MsgType]int
	respState int // CatchUpResp messages with a non-empty State
	maxAccept map[uint64]int
}

func (m *msgTrace) observe(_ time.Time, env *wire.Envelope) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.count == nil {
		m.count = make(map[wire.MsgType]int)
		m.maxAccept = make(map[uint64]int)
	}
	m.count[env.Msg.Type()]++
	switch msg := env.Msg.(type) {
	case *wire.CatchUpResp:
		if len(msg.State) > 0 || msg.StateAt != 0 {
			m.respState++
		}
	case *wire.Accept:
		// Wire size of the accept, filed under its top instance.
		top := msg.Entries[len(msg.Entries)-1].Instance
		if n := len(wire.EncodeEnvelope(nil, env)); n > m.maxAccept[top] {
			m.maxAccept[top] = n
		}
	}
}

func (m *msgTrace) get(t wire.MsgType) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count[t]
}

// statefulResps returns how many CatchUpResp messages carried state.
func (m *msgTrace) statefulResps() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.respState
}

// acceptBytes returns the largest Accept seen whose top instance is inst.
func (m *msgTrace) acceptBytes(inst uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.maxAccept[inst]
}

// syncBuf is a goroutine-safe log sink.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func metric(t *testing.T, c *cluster.Cluster, id wire.NodeID, name string) int64 {
	t.Helper()
	m, ok := metrics.Find(replica(t, c, id).Metrics().Snapshot(), name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return m.Value
}

// xferService is one row of the state-transfer table: a service, named
// after the mode it runs in, and a write workload that exercises its
// nondeterminism.
type xferService struct {
	name    string
	factory func() service.Factory
	setup   [][]byte
	write   func(i int) []byte
	// stripped: Compact removes this mode's effects from old entries, so
	// a lag inside a compacted range needs a snapshot. Only deltas are
	// State payloads; aux survives Compact and full mode needs only the
	// newest state.
	stripped bool
}

var xferServices = []xferService{
	{
		name: "delta-kv", stripped: true,
		factory: func() service.Factory { return service.KVFactory },
		write:   func(i int) []byte { return service.KVPut(fmt.Sprintf("k%d", i%64), []byte(fmt.Sprint(i))) },
	},
	{
		name:    "replay-sched",
		factory: func() service.Factory { return func() service.Service { return service.NewSched() } },
		write: func(i int) []byte {
			if i%3 == 2 {
				return service.SchedDispatch()
			}
			return service.SchedSubmit(fmt.Sprintf("j%d", i), int64(i%5))
		},
	},
	{
		name: "replay-broker",
		factory: func() service.Factory {
			seed := int64(0)
			return func() service.Service { seed++; return service.NewBroker(seed) }
		},
		setup: [][]byte{service.BrokerRegister("a", 1<<30), service.BrokerRegister("b", 1<<30), service.BrokerRegister("c", 1<<30)},
		write: func(int) []byte { return service.BrokerRequest(2) },
	},
	{
		name:    "full-noop",
		factory: func() service.Factory { return service.NoopFactory },
		write:   func(int) []byte { return service.NoopWriteOp },
	},
}

// xferRun is one cell's cluster plus what the assertions read.
type xferRun struct {
	t     *testing.T
	svc   xferService
	c     *cluster.Cluster
	cli   *client.Client
	trace *msgTrace
	logs  *syncBuf
	next  int
}

func newXferRun(t *testing.T, svc xferService, opts core.Options) *xferRun {
	x := &xferRun{t: t, svc: svc, trace: &msgTrace{}, logs: &syncBuf{}}
	x.c = newCluster(t, cluster.Config{
		Service: svc.factory(),
		Options: opts,
		Tracer:  x.trace.observe,
		Logger:  log.New(x.logs, "", 0),
	})
	cli, err := x.c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	x.cli = cli
	for _, op := range svc.setup {
		if _, err := cli.Write(op); err != nil {
			t.Fatal(err)
		}
	}
	return x
}

func (x *xferRun) writes(n int) {
	x.t.Helper()
	for i := 0; i < n; i++ {
		if _, err := x.cli.Write(x.svc.write(x.next)); err != nil {
			x.t.Fatalf("write %d: %v", x.next, err)
		}
		x.next++
	}
}

// aBackup returns a running replica that is not the leader.
func (x *xferRun) aBackup() wire.NodeID {
	x.t.Helper()
	leader, ok := x.c.Leader()
	if !ok {
		x.t.Fatal("no leader")
	}
	return others(x.c, leader)[0]
}

// waitPruned blocks until every running replica has pruned its log.
func (x *xferRun) waitPruned() {
	x.t.Helper()
	waitFor(x.t, "every survivor to prune its log", func() bool {
		for _, id := range x.c.Running() {
			if replica(x.t, x.c, id).Health().PrunedIndex == 0 {
				return false
			}
		}
		return true
	})
}

// finish requires the rule's invariants: the replicas converge to
// byte-equal state, and no CatchUpResp ever carried state.
func (x *xferRun) finish() {
	x.t.Helper()
	waitConverged(x.t, x.c)
	snaps := snapshotAll(x.t, x.c)
	for i, s := range snaps {
		if !bytes.Equal(s, snaps[0]) {
			x.t.Fatalf("replica #%d diverged", i)
		}
	}
	if n := x.trace.statefulResps(); n != 0 {
		x.t.Fatalf("%d CatchUpResp messages carried state; bulk state travels only by the chunk stream", n)
	}
}

// TestStateTransfer is the state-transfer rule (DESIGN.md "State
// transfer") as a table: for each service and mode, a replica that fell
// behind rejoins by applying entries while the peers still hold the
// effects, and by the chunk stream — never by a snapshot inside a
// CatchUpResp — once they are gone.
func TestStateTransfer(t *testing.T) {
	small := core.Options{SnapshotEvery: 16, PruneKeep: 4}
	for _, svc := range xferServices {
		svc := svc
		t.Run(svc.name+"/lag-intact", func(t *testing.T) {
			x := newXferRun(t, svc, core.Options{})
			x.writes(5)
			b := x.aBackup()
			x.c.Net.Model().SetDown(b, true)
			x.writes(10)
			x.c.Net.Model().SetDown(b, false)
			x.finish()
			if x.trace.get(wire.MsgCatchUpResp) == 0 {
				t.Fatal("the healed backup converged without a CatchUpResp")
			}
			if n := metric(t, x.c, b, "gridrep_catchup_chunks_received_total"); n != 0 {
				t.Fatalf("received %d snapshot chunks with the effects intact", n)
			}
			if n := metric(t, x.c, b, "gridrep_catchup_installs_total"); n != 0 {
				t.Fatalf("installed %d snapshots with the effects intact", n)
			}
		})
		t.Run(svc.name+"/lag-pruned", func(t *testing.T) {
			x := newXferRun(t, svc, small)
			x.writes(40)
			x.waitPruned()
			b := x.aBackup()
			x.c.Crash(b)
			x.c.SetStore(b, storage.NewMem()) // memory loss: it returns at 0
			x.writes(40)
			if err := x.c.Restart(b); err != nil {
				t.Fatal(err)
			}
			x.finish()
			if n := metric(t, x.c, b, "gridrep_catchup_installs_total"); n < 1 {
				t.Fatalf("installed %d snapshots from below the pruned prefix", n)
			}
		})
		t.Run(svc.name+"/lag-compacted", func(t *testing.T) {
			// No durable snapshot yet (SnapshotEvery defaults to 4096) and
			// more than one Compact period of writes while the backup is
			// away: what it lacks is still in the peers' logs, minus any
			// State payloads.
			x := newXferRun(t, svc, core.Options{})
			x.writes(5)
			b := x.aBackup()
			x.c.Net.Model().SetDown(b, true)
			x.writes(1100)
			x.c.Net.Model().SetDown(b, false)
			x.finish()
			var saves int64
			for _, id := range others(x.c, b) {
				saves += metric(t, x.c, id, "gridrep_snapshot_saves_total")
			}
			installs := metric(t, x.c, b, "gridrep_catchup_installs_total")
			if svc.stripped && (installs < 1 || saves < 1) {
				t.Fatalf("installs=%d saves=%d: stripped deltas need an on-demand snapshot and a stream", installs, saves)
			}
			if !svc.stripped && (installs != 0 || saves != 0) {
				t.Fatalf("installs=%d saves=%d: the effects survive Compact, entries suffice", installs, saves)
			}
		})
		t.Run(svc.name+"/preparing-suffix-gone", func(t *testing.T) {
			// A long RetryTimeout keeps the restarted replica from asking
			// as a backup before it is elected.
			opts := small
			opts.RetryTimeout = 500 * time.Millisecond
			x := newXferRun(t, svc, opts)
			x.writes(40)
			x.waitPruned()
			const victim = wire.NodeID(0) // Ω's preferred claimant once all claims are gone
			x.c.Crash(victim)
			x.c.SetStore(victim, storage.NewMem())
			if _, err := x.c.WaitForLeader(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			x.writes(40)
			if err := x.c.Restart(victim); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the survivors to see the restarted replica alive", func() bool {
				seen := true
				for _, id := range others(x.c, victim) {
					replica(t, x.c, id).Inspect(func(r *core.Replica) {
						seen = seen && r.Elector().Alive(victim, time.Now())
					})
				}
				return seen
			})
			// It lost its memory, ballots included: one accept from the
			// current leader teaches it a ballot its prepare can outbid.
			x.writes(1)
			x.c.SuspectLeader()
			// Usually the victim is elected, told its suffix is gone while
			// preparing, and stands down (TestPreparingStandsDownWhenSuffixIsGone
			// pins that step) before it leads; under load Ω may settle on a
			// survivor instead. Either way the cluster must elect and the
			// victim rejoin by stream.
			for deadline := time.Now().Add(3 * time.Second); !isActiveLeader(t, x.c, victim) && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if _, err := x.c.WaitForLeader(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			t.Logf("victim stood down mid-prepare: %v", strings.Contains(x.logs.String(), "standing down to fetch a snapshot"))
			x.writes(5)
			x.finish()
			if n := metric(t, x.c, victim, "gridrep_catchup_installs_total"); n < 1 {
				t.Fatalf("installed %d snapshots", n)
			}
		})
	}
}

// preloadKV fills a KV cluster with the benchmark's 4,096 × 256 B store.
// It loads through transactions — their ops run on the leader with no
// consensus and no per-wave undo copy of the growing store — and retries
// a chunk that a leader switch aborted.
func preloadKV(t *testing.T, cli *client.Client) []byte {
	t.Helper()
	val := bytes.Repeat([]byte{'v'}, 256)
	for chunk := 0; chunk < 4096; chunk += 512 {
		load := func() error {
			tx := cli.Begin()
			for i := chunk; i < chunk+512; i++ {
				if _, err := tx.Do(service.KVPut(fmt.Sprintf("key-%04d", i), val)); err != nil {
					return err
				}
			}
			return tx.Commit()
		}
		err := load()
		for try := 0; try < 4 && errors.Is(err, client.ErrAborted); try++ {
			err = load()
		}
		if err != nil {
			t.Fatalf("preload chunk %d: %v", chunk, err)
		}
	}
	return val
}

// TestTxnCommitCarriesWriteSet: on the benchmark's 1 MB store, a delta-mode
// T-Paxos commit puts the transaction's write set on the wire, not the
// store.
func TestTxnCommitCarriesWriteSet(t *testing.T) {
	x := newXferRun(t, xferServices[0], core.Options{HeartbeatInterval: 25 * time.Millisecond})
	val := preloadKV(t, x.cli)
	tx := x.cli.Begin()
	for _, k := range []string{"key-0001", "key-0002", "fresh"} {
		if _, err := tx.Do(service.KVPut(k, val)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	leader, _ := x.c.Leader()
	inst := replica(t, x.c, leader).Health().CommitIndex
	if n := x.trace.acceptBytes(inst); n == 0 || n >= 4<<10 {
		t.Fatalf("the 3-op transaction's commit accept (instance %d) is %d bytes on the wire, want under 4 KB", inst, n)
	}
	x.finish()
}

// TestTxnReplayEffect: in replay mode a transaction containing a
// nondeterministic op commits as the aux its ops captured. Every replica
// ends byte-equal — also when the leader dies between the commit and the
// next write, so that the recovery wave re-proposes the effect and the
// new leader answers the retransmitted commit from its rebuilt cache.
func TestTxnReplayEffect(t *testing.T) {
	txns := map[string]func(id uint64) [][]byte{
		"replay-sched": func(id uint64) [][]byte {
			return [][]byte{service.SchedSubmit(fmt.Sprintf("t%d", id), 9), service.SchedDispatch(), service.SchedSubmit(fmt.Sprintf("u%d", id), 1)}
		},
		"replay-broker": func(uint64) [][]byte {
			return [][]byte{service.BrokerRequest(3), service.BrokerRelease("a"), service.BrokerRequest(1)}
		},
	}
	for _, svc := range xferServices[1:3] {
		svc := svc
		t.Run(svc.name, func(t *testing.T) {
			x := newXferRun(t, svc, core.Options{})
			if svc.name == "replay-broker" {
				// The transaction releases a slot on "a"; make sure one is held.
				for held := false; !held; {
					res, err := x.cli.Write(service.BrokerRequest(1))
					if err != nil {
						t.Fatal(err)
					}
					sel, _ := service.BrokerSelection(res)
					held = sel[0] == "a"
				}
			}
			rc := newRawClient(t, x.c, 900)
			seq := uint64(0)
			// runTxn drives one transaction by hand and returns its commit.
			runTxn := func(id uint64) wire.Request {
				t.Helper()
				ops := append(txns[svc.name](id), nil)
				var req wire.Request
				for i, op := range ops {
					seq++
					req = rc.request(seq, wire.KindTxnOp, op)
					req.Txn, req.TxnSeq = id, uint32(i)
					if op == nil {
						req.Kind = wire.KindTxnCommit
					}
					rc.send(req, x.c.Running()...)
					if rep, ok := rc.await(seq, 5*time.Second); !ok || rep.Status != wire.StatusOK {
						t.Fatalf("txn %d op %d: reply %+v (answered=%v)", id, i, rep, ok)
					}
				}
				return req
			}

			x.writes(4)
			runTxn(1)
			x.writes(4)
			x.finish()

			commit := runTxn(2)
			old, _ := x.c.Leader()
			x.c.Crash(old)
			if _, err := x.c.WaitForLeader(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			rc.send(commit, x.c.Running()...)
			if rep, ok := rc.await(commit.Seq, 5*time.Second); !ok || rep.Status != wire.StatusOK {
				t.Fatalf("retransmitted commit after the leader crash: reply %+v (answered=%v)", rep, ok)
			}
			x.writes(4)
			x.finish()
		})
	}
}

// TestFaultFreeRunSendsNoCatchUp: a heartbeat's Chosen normally runs one
// piggybacked commit ahead of a backup; that is not lag, and a fault-free
// serial run must not start a single catch-up. On the benchmark's 1 MB
// store, where a write takes long enough for ticks to land in that gap.
func TestFaultFreeRunSendsNoCatchUp(t *testing.T) {
	trace := &msgTrace{}
	c := newCluster(t, cluster.Config{
		Service: service.KVFactory,
		Tracer:  trace.observe,
		// The default heartbeat: a scheduler stall has to outlast the
		// 100 ms RetryTimeout it implies before a backup may rightly ask.
		Options: core.Options{HeartbeatInterval: 25 * time.Millisecond},
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	val := preloadKV(t, cli)
	for i := 0; i < 2000; i++ {
		if _, err := cli.Write(service.KVPut(fmt.Sprintf("key-%04d", i), val)); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, c)
	if n := trace.get(wire.MsgCatchUpReq); n != 0 {
		t.Fatalf("%d CatchUpReq sent on a fault-free run", n)
	}
}
