package core

import (
	"fmt"
	"log"
	"strings"
	"testing"
	"time"

	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// xferService is one row of the state-transfer table: a service, named
// after the mode it runs in, and a write workload that exercises its
// nondeterminism.
type xferService struct {
	name    string
	service func(wire.NodeID, int) service.Service
	setup   [][]byte
	write   func(i int) []byte
	// stripped: Compact removes this mode's effects from the entries a
	// durable snapshot covers, so a lag below the snapshot rejoins by the
	// stream. Only deltas are State payloads; aux survives Compact and
	// full mode needs only the newest state.
	stripped bool
}

var xferServices = []xferService{
	{
		name: "delta-kv", stripped: true,
		write: func(i int) []byte { return service.KVPut(fmt.Sprint("k", i%64), []byte(fmt.Sprint(i))) },
	},
	{
		name:    "replay-sched",
		service: func(wire.NodeID, int) service.Service { return service.NewSched() },
		write: func(i int) []byte {
			if i%3 == 2 {
				return service.SchedDispatch()
			}
			return service.SchedSubmit(fmt.Sprint("j", i), int64(i%5))
		},
	},
	{
		name:    "replay-broker",
		service: brokers(1),
		setup:   [][]byte{service.BrokerRegister("a", 1<<30), service.BrokerRegister("b", 1<<30), service.BrokerRegister("c", 1<<30)},
		write:   func(int) []byte { return service.BrokerRequest(2) },
	},
	{
		name:    "full-noop",
		service: noop,
		write:   func(int) []byte { return service.NoopWriteOp },
	},
}

// xferRun is one cell's cluster, its client, and whether any CatchUpResp
// ever carried state.
type xferRun struct {
	*sim
	svc      xferService
	c        *simClient
	next     int
	stateful int
	logs     strings.Builder
}

func newXferRun(t *testing.T, svc xferService, opts Options) *xferRun {
	x := &xferRun{svc: svc}
	x.sim = newSim(t, simConfig{seed: 111, service: svc.service, opts: opts, log: log.New(&x.logs, "", 0)})
	x.drop = func(_ wire.NodeID, env *wire.Envelope) bool {
		if m, ok := env.Msg.(*wire.CatchUpResp); ok && (len(m.State) > 0 || m.StateAt != 0) {
			x.stateful++
		}
		return false
	}
	x.awaitLeader(time.Second)
	x.c = x.newClient()
	for _, op := range svc.setup {
		x.c.must(wire.KindWrite, op)
	}
	return x
}

func (x *xferRun) writes(n int) {
	for i := 0; i < n; i++ {
		x.c.must(wire.KindWrite, x.svc.write(x.next))
		x.next++
	}
}

// aBackup returns a live replica that is not the leader.
func (x *xferRun) aBackup() wire.NodeID {
	lead, ok := x.leader()
	if !ok {
		x.t.Fatal("no leader")
	}
	return x.others(lead)[0]
}

// awaitPruned runs until every live replica has pruned its log.
func (x *xferRun) awaitPruned() {
	if !x.runUntil(5*time.Second, func() bool {
		for _, n := range x.nodes {
			if n.r != nil && n.r.acc.PrunedTo() == 0 {
				return false
			}
		}
		return true
	}) {
		x.t.Fatal("the logs were never pruned")
	}
}

// finish requires the rule's invariants: the replicas converge to
// byte-equal state, and no CatchUpResp ever carried state.
func (x *xferRun) finish() {
	x.mustConverge()
	if x.stateful != 0 {
		x.t.Fatalf("%d CatchUpResp messages carried state; bulk state travels only by the chunk stream", x.stateful)
	}
}

// TestStateTransfer is the state-transfer rule (DESIGN.md "State
// transfer") as a table: for each service and mode, a replica that fell
// behind rejoins by applying entries while the peers still hold the
// effects, and by the chunk stream — never by a snapshot inside a
// CatchUpResp — once they are gone.
func TestStateTransfer(t *testing.T) {
	small := Options{SnapshotEvery: 16, PruneKeep: 4}
	for _, svc := range xferServices {
		t.Run(svc.name+"/lag-intact", func(t *testing.T) {
			x := newXferRun(t, svc, Options{})
			x.writes(5)
			b := x.aBackup()
			x.model.SetDown(b, true)
			x.writes(10)
			x.model.SetDown(b, false)
			x.finish()
			if x.msgs[wire.MsgCatchUpResp] == 0 {
				t.Fatal("the healed backup converged without a CatchUpResp")
			}
			if st := &x.nodes[b].r.stats; st.catchupChunksIn.Load() != 0 || st.catchupInstalls.Load() != 0 {
				t.Fatalf("%d snapshot chunks received, %d installed with the effects intact", st.catchupChunksIn.Load(), st.catchupInstalls.Load())
			}
		})
		t.Run(svc.name+"/lag-pruned", func(t *testing.T) {
			x := newXferRun(t, svc, small)
			x.writes(40)
			x.awaitPruned()
			b := x.aBackup()
			x.crash(b)
			x.nodes[b].store = newSimStore() // memory loss: it returns at 0
			x.writes(40)
			x.restart(b)
			x.finish()
			if n := x.nodes[b].r.stats.catchupInstalls.Load(); n < 1 {
				t.Fatalf("installed %d snapshots from below the pruned prefix", n)
			}
		})
		t.Run(svc.name+"/lag-compacted", func(t *testing.T) {
			// More than one SnapshotEvery (default 1024) of writes while the
			// backup is away: every peer takes a durable snapshot and
			// compacts what it covers, but the backup's stale watermark keeps
			// them from pruning. What it lacks is still in their logs, minus
			// the State payloads below the snapshot: it rejoins by the
			// stream where those were its effects, by entries elsewhere.
			x := newXferRun(t, svc, Options{})
			x.writes(5)
			b := x.aBackup()
			x.model.SetDown(b, true)
			x.writes(1100)
			x.model.SetDown(b, false)
			x.finish()
			for _, id := range x.others(b) {
				if n := x.nodes[id].r.stats.snapSaves.Load(); n < 1 {
					t.Fatalf("replica %d took %d snapshots in 1,100 writes", id, n)
				}
			}
			installs := x.nodes[b].r.stats.catchupInstalls.Load()
			if svc.stripped && installs < 1 {
				t.Fatalf("installs=%d: effects below the snapshot are stripped, only the stream has them", installs)
			}
			if !svc.stripped && installs != 0 {
				t.Fatalf("installs=%d: the effects survive Compact, entries suffice", installs)
			}
		})
		t.Run(svc.name+"/preparing-suffix-gone", func(t *testing.T) {
			// A long RetryTimeout keeps the restarted replica from asking as
			// a backup before it is elected.
			opts := small
			opts.RetryTimeout = 500 * time.Millisecond
			x := newXferRun(t, svc, opts)
			x.writes(40)
			x.awaitPruned()
			const victim = wire.NodeID(0) // Ω's preferred claimant once all claims are gone
			x.crash(victim)
			x.nodes[victim].store = newSimStore()
			x.awaitLeader(time.Second)
			x.writes(40)
			x.restart(victim)
			if !x.runUntil(time.Second, func() bool {
				for _, id := range x.others(victim) {
					if !x.nodes[id].r.Elector().Alive(victim, x.now) {
						return false
					}
				}
				return true
			}) {
				t.Fatal("the survivors never saw the restarted replica alive")
			}
			// It lost its memory, ballots included: one accept from the
			// current leader teaches it a ballot its prepare can outbid.
			// Every replica then distrusts everyone but the victim, so Ω
			// elects it whatever the schedule. The victim is elected, told
			// while preparing that its suffix is gone, and stands down to
			// pull the stream before it leads
			// (TestPreparingStandsDownWhenSuffixIsGone pins that step).
			x.writes(1)
			for _, id := range x.others(victim) {
				x.suspect(id)
			}
			const stoodDown = "replica r0 [preparing]: suffix above 0 is gone"
			if !x.runUntil(time.Second, func() bool { return strings.Contains(x.logs.String(), stoodDown) }) {
				t.Fatal("the victim never stood down mid-prepare to fetch a snapshot")
			}
			x.writes(5)
			x.finish()
			if n := x.nodes[victim].r.stats.catchupInstalls.Load(); n < 1 {
				t.Fatalf("installed %d snapshots", n)
			}
		})
	}
}

// TestTxnCommitCarriesWriteSet: on the benchmark's 1 MB store, a delta
// mode T-Paxos commit puts the transaction's write set on the wire, not
// the store.
func TestTxnCommitCarriesWriteSet(t *testing.T) {
	s := newSim(t, simConfig{seed: 112, service: kvService(4096, 256)})
	lead := s.awaitLeader(time.Second)
	accept := map[uint64]int{} // the largest Accept, by its top instance
	s.drop = func(_ wire.NodeID, env *wire.Envelope) bool {
		if m, ok := env.Msg.(*wire.Accept); ok {
			top := m.Entries[len(m.Entries)-1].Instance
			accept[top] = max(accept[top], len(wire.EncodeEnvelope(nil, env)))
		}
		return false
	}
	c := s.newClient()
	tx := c.begin()
	val := make([]byte, 256)
	for _, k := range []string{"key-1", "key-2", "fresh"} {
		mustOK(t, "txn op", tx.do(service.KVPut(k, val)))
	}
	mustOK(t, "commit", tx.commit())
	inst := s.nodes[lead].r.Chosen()
	if n := accept[inst]; n == 0 || n >= 4<<10 {
		t.Fatalf("the 3-op transaction's commit accept (instance %d) is %d bytes on the wire, want under 4 KB", inst, n)
	}
	s.mustConverge()
}

// TestTxnReplayEffect: in replay mode a transaction containing a
// nondeterministic op commits as the aux its ops captured. Every replica
// ends byte-equal — also when the leader dies between the commit and the
// next write, so that the recovery wave re-proposes the effect and the
// new leader answers the retransmitted commit from its rebuilt cache.
func TestTxnReplayEffect(t *testing.T) {
	txns := map[string]func(id uint64) [][]byte{
		"replay-sched": func(id uint64) [][]byte {
			return [][]byte{service.SchedSubmit(fmt.Sprint("t", id), 9), service.SchedDispatch(), service.SchedSubmit(fmt.Sprint("u", id), 1)}
		},
		"replay-broker": func(uint64) [][]byte {
			return [][]byte{service.BrokerRequest(3), service.BrokerRelease("a"), service.BrokerRequest(1)}
		},
	}
	for _, svc := range xferServices[1:3] {
		t.Run(svc.name, func(t *testing.T) {
			x := newXferRun(t, svc, Options{})
			if svc.name == "replay-broker" {
				// The transaction releases a slot on "a"; make sure one is held.
				for held := false; !held; {
					sel, _ := service.BrokerSelection(x.c.must(wire.KindWrite, service.BrokerRequest(1)))
					held = sel[0] == "a"
				}
			}
			runTxn := func() {
				tx := x.c.begin()
				for i, op := range txns[svc.name](tx.id) {
					mustOK(t, fmt.Sprintf("txn %d op %d", tx.id, i), tx.do(op))
				}
				mustOK(t, fmt.Sprintf("txn %d commit", tx.id), tx.commit())
			}
			x.writes(4)
			runTxn()
			x.writes(4)
			x.finish()

			runTxn()
			old, _ := x.leader()
			x.crash(old)
			x.awaitLeader(time.Second)
			mustOK(t, "the commit retransmitted after the leader crash", x.c.again(opLimit))
			x.restart(old)
			x.writes(4)
			x.finish()
		})
	}
}

// TestFaultFreeRunSendsNoCatchUp: a heartbeat's Chosen normally runs one
// piggybacked commit ahead of a backup; that is not lag, and a
// fault-free serial run must not start a single catch-up. On the
// benchmark's 1 MB store with the service-time model on, so that a
// write takes long enough for heartbeats to land in that gap, at the
// default heartbeat.
func TestFaultFreeRunSendsNoCatchUp(t *testing.T) {
	s := newSim(t, simConfig{seed: 113, service: kvService(4096, 256), cost: serviceTime,
		opts: Options{HeartbeatInterval: 25 * time.Millisecond}})
	s.awaitLeader(time.Second)
	c := s.newClient()
	val := make([]byte, 256)
	for i := 0; i < 2000; i++ {
		c.must(wire.KindWrite, service.KVPut(fmt.Sprint("key-", i), val))
	}
	s.mustConverge()
	if n := s.msgs[wire.MsgCatchUpReq]; n != 0 {
		t.Fatalf("%d CatchUpReq sent on a fault-free run", n)
	}
}
