package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridrep/internal/client"
	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// Tests that run the step functions under the simulator (sim_test.go).

// kvAdd is one counter increment request.
func kvAdd(key string) wire.Request {
	return wire.Request{Kind: wire.KindWrite, Op: service.KVAdd(key, 1)}
}

// loop keeps c issuing next() until stop, counting acknowledged writes.
func (c *simClient) loop(stop time.Time, next func() wire.Request, acked *int) {
	if !c.s.now.Before(stop) {
		return
	}
	c.do(next(), func(rep wire.Reply) {
		if rep.Status != wire.StatusOK {
			c.s.t.Errorf("client %d: %v %s", c.id, rep.Status, rep.Err)
			return
		}
		*acked++
		c.loop(stop, next, acked)
	})
}

// mixedRun is the determinism workload: two clients writing and reading
// a small KV, and one forced leader suspicion mid-run.
func mixedRun(t *testing.T, seed int64) []byte {
	s := newSim(t, simConfig{seed: seed})
	s.trace = new(bytes.Buffer)
	s.awaitLeader(time.Second)
	stop := s.now.Add(2 * time.Second)
	acked := 0
	for i := 0; i < 2; i++ {
		c, n := s.newClient(), 0
		c.loop(stop, func() wire.Request {
			n++
			if n%3 == 0 {
				return wire.Request{Kind: wire.KindRead, Op: service.KVGet(fmt.Sprint("k", n%8))}
			}
			return wire.Request{Kind: wire.KindWrite, Op: service.KVPut(fmt.Sprint("k", n%8), []byte{byte(n)})}
		}, &acked)
	}
	s.after(time.Second, func() {
		if l, ok := s.leader(); ok {
			s.suspect(l)
		}
	})
	s.runFor(3 * time.Second)
	if acked == 0 || len(s.violations) > 0 {
		t.Fatalf("seed %d: %d ops acknowledged, violations %v", seed, acked, s.violations)
	}
	return s.trace.Bytes()
}

// TestSimDeterministicTrace: a seed is a run. The same seed twice gives
// a byte-identical trace of every delivery — virtual time, sender,
// receiver, encoded bytes — and another seed gives another trace.
func TestSimDeterministicTrace(t *testing.T) {
	a, b, c := mixedRun(t, 1), mixedRun(t, 1), mixedRun(t, 2)
	if !bytes.Equal(a, b) {
		t.Fatalf("seed 1 twice: traces differ (%d vs %d bytes)", len(a), len(b))
	}
	if bytes.Equal(a, c) {
		t.Fatal("seeds 1 and 2 produced the same trace")
	}
	t.Logf("trace: %d bytes", len(a))
}

// stepInput is one recorded step input, as the record seam saw it, with
// envelopes kept encoded so that a log is plain values.
type stepInput struct {
	now time.Time
	in  any
}

type stepLog []stepInput

// replay feeds a recorded log through the step functions of r.
func (l stepLog) replay(r *Replica) {
	for _, s := range l {
		switch in := s.in.(type) {
		case []byte:
			env, err := wire.DecodeEnvelope(in)
			if err != nil {
				panic(err)
			}
			r.deliver(s.now, env)
		case tickInput:
			r.tick(s.now)
		case burstInput:
			r.endBurst()
		case int:
			r.durable(s.now, in)
		case peerHealth:
			r.onPeerHealth(s.now, in)
		case func(*Replica):
			r.control(s.now, in)
		case snapDone:
			r.snapshotted(s.now, in)
		default:
			panic(fmt.Sprintf("unknown step input %T", in))
		}
	}
}

// TestSimRecordReplay records a live in-process run — three replicas
// built with New on transport.Network, Mem stores, KV writes and reads,
// one forced leader suspicion — at each replica's driver, then replays
// every replica's inputs through the step functions with no network: the
// replayed replicas end in byte-equal state at equal indexes and ballots.
func TestSimRecordReplay(t *testing.T) {
	model := netem.NewModel(1, nil)
	lat := netem.Latency{Base: 100 * time.Microsecond, Jitter: 100 * time.Microsecond}
	model.SetLinkSym(netem.ClassReplica, netem.ClassReplica, lat)
	model.SetLinkSym(netem.ClassReplica, netem.ClassClient, lat)
	net := transport.NewNetwork(model)
	defer net.Close()
	peers := []wire.NodeID{0, 1, 2}
	config := func(id wire.NodeID, tr transport.Transport) Config {
		return Config{ID: id, Peers: peers, Service: service.KVFactory, Store: storage.NewMem(), Transport: tr,
			Options: Options{HeartbeatInterval: 5 * time.Millisecond}}
	}
	logs := make([]stepLog, len(peers))
	reps := make([]*Replica, len(peers))
	// One processor while they start: no read pool, so the live replicas
	// run the read path their replay below runs.
	procs := runtime.GOMAXPROCS(1)
	for i, id := range peers {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		if reps[i], err = New(config(id, ep)); err != nil {
			t.Fatal(err)
		}
		log := &logs[i]
		reps[i].record = func(now time.Time, in any) {
			if env, ok := in.(*wire.Envelope); ok {
				in = wire.EncodeEnvelope(nil, env)
			}
			*log = append(*log, stepInput{now, in})
		}
		reps[i].Start()
	}
	runtime.GOMAXPROCS(procs)
	leader := func(not wire.NodeID) wire.NodeID {
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			for i, r := range reps {
				active := false
				r.Inspect(func(r *Replica) { active = r.IsActiveLeader() })
				if active && peers[i] != not {
					return peers[i]
				}
			}
		}
		t.Fatal("no active leader")
		return 0
	}
	ep, err := net.Endpoint(wire.ClientIDBase)
	if err != nil {
		t.Fatal(err)
	}
	cli := client.New(client.Config{Transport: ep, Replicas: peers, RetryEvery: 50 * time.Millisecond})
	defer cli.Close()
	work := func(round int) {
		for i := 0; i < 20; i++ {
			if _, err := cli.Write(service.KVPut(fmt.Sprint("k", i%8), []byte(fmt.Sprint(round, i)))); err != nil {
				t.Fatal(err)
			}
			if i%4 == 0 {
				if _, err := cli.Read(service.KVGet(fmt.Sprint("k", i%8))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	old := leader(^wire.NodeID(0)) // any replica
	work(0)
	for _, r := range reps {
		r.Inspect(func(r *Replica) { r.Elector().Suspect(old) })
	}
	leader(old)
	work(1)
	for _, r := range reps {
		r.Stop()
	}
	if reps[0].Inspect(func(*Replica) {}) {
		t.Fatal("a stopped replica ran an inspection")
	}
	for i, live := range reps {
		again, err := New(config(peers[i], &sendRecorder{}))
		if err != nil {
			t.Fatal(err)
		}
		logs[i].replay(again)
		if !bytes.Equal(again.svc.Snapshot(), live.svc.Snapshot()) || again.Chosen() != live.Chosen() ||
			again.Applied() != live.Applied() || again.Ballot() != live.Ballot() {
			t.Fatalf("replica %d: replay of %d inputs ended at chosen %d applied %d ballot %v, live at %d %d %v",
				peers[i], len(logs[i]), again.Chosen(), again.Applied(), again.Ballot(), live.Chosen(), live.Applied(), live.Ballot())
		}
	}
	t.Logf("replayed %d, %d, %d inputs", len(logs[0]), len(logs[1]), len(logs[2]))
}

// TestSimCorpus replays past review findings as scripted schedules. Each
// row passes on this tree; each fails under its mutation (CHANGES.md).
func TestSimCorpus(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"near-confirm durability gap (PR 10)", corpusConfirmDurability},
		{"dirty read under an open exclusive transaction (PR 19)", corpusExclusiveDirtyRead},
		{"queued write run inside an open exclusive transaction", corpusWriteInsideExclusiveTxn},
		{"exclusive abort beside the wave in flight", corpusAbortBesideWaveInFlight},
		{"mutating op sent as a read", corpusMutatingRead},
		{"full restart after 1,000 writes", corpusFullRestart(1000)},
		{"full restart after 1,500 writes: Compact past the durable snapshot", corpusFullRestart(1500)},
		{"full restart after 5,000 writes", corpusFullRestart(5000)},
	} {
		t.Run(row.name, row.run)
	}
}

// corpusConfirmDurability: a backup stages a new leader's promise and, in
// the same instant, is asked to vouch for a read — its confirm carries
// that promise's ballot. The backup then crashes before the flush and
// forgets the promise. A confirm sent ahead of the flush (flushConfirms
// sending directly while the promise is only staged) has by then
// claimed a ballot no disk backs; the vouching check catches it at the
// send.
func corpusConfirmDurability(t *testing.T) {
	s := newSim(t, simConfig{seed: 10, fsync: [2]time.Duration{20 * time.Millisecond, 20 * time.Millisecond}})
	old := s.awaitLeader(time.Second)
	writer, reader := s.newClient(), s.newClient()
	if rep := writer.call(wire.Request{Kind: wire.KindWrite, Op: service.KVPut("k", []byte("v1"))}, time.Second); rep.Status != wire.StatusOK {
		t.Fatalf("write: %v", rep.Status)
	}
	backup := wire.NodeID(2) // the replica that neither led nor will lead next
	if old == 2 {
		backup = 1
	}
	staged := s.nodes[backup].store.promised
	var got *wire.Reply
	s.watch = func() {
		n := s.nodes[backup]
		if n.r == nil || !staged.Less(n.r.acc.Promised()) {
			return
		}
		s.watch = nil // the backup has just staged the next leader's promise
		reader.do(wire.Request{Kind: wire.KindRead, Op: service.KVGet("k")}, func(rep wire.Reply) { got = &rep })
		s.after(5*time.Millisecond, func() { s.crash(backup) })
		s.after(200*time.Millisecond, func() { s.restart(backup) })
	}
	s.suspect(old)
	if !s.runUntil(5*time.Second, func() bool { return got != nil }) {
		t.Fatal("the read was never answered")
	}
	if v, _ := service.KVReply(got.Result); got.Status != wire.StatusOK || string(v) != "v1" {
		t.Fatalf("read: %v %q, want v1", got.Status, v)
	}
	if len(s.violations) > 0 {
		t.Fatalf("vouched ahead of the flush:\n%s", strings.Join(s.violations, "\n"))
	}
}

// corpusExclusiveDirtyRead: a read registers at the leader with its own
// vote only; an exclusive (serialized) transaction then executes an op
// against the live state; the backups' confirms complete the read's
// quorum while the transaction is open. The read is answered then, from
// the view pinned before the transaction's first op, and the abort
// follows. Reading the live state instead answers it from state the
// abort then erases.
func corpusExclusiveDirtyRead(t *testing.T) {
	s := newSim(t, simConfig{seed: 20, service: func(id wire.NodeID, inc int) service.Service {
		return service.NewBroker(int64(id)*100 + int64(inc))
	}})
	lead := s.awaitLeader(time.Second)
	tx, reader := s.newClient(), s.newClient()
	if rep := tx.call(wire.Request{Kind: wire.KindWrite, Op: service.BrokerRegister("n1", 10)}, time.Second); rep.Status != wire.StatusOK {
		t.Fatalf("register: %v", rep.Status)
	}
	var replies []wire.Reply
	reader.seq++
	read := wire.Request{Client: reader.id, Seq: reader.seq, Kind: wire.KindRead, Op: service.BrokerList()}
	reader.busy, reader.done = true, func(rep wire.Reply) { replies = append(replies, rep); reader.busy = true }
	reader.sendTo(read, lead)
	s.runFor(5 * time.Millisecond)
	op := wire.Request{Kind: wire.KindTxnOp, Txn: 1, Op: service.BrokerRequest(3)}
	if rep := tx.call(op, time.Second); rep.Status != wire.StatusOK {
		t.Fatalf("txn op: %v", rep.Status)
	}
	reader.sendTo(read, s.peers()...)
	s.runFor(20 * time.Millisecond)
	if len(replies) == 0 {
		t.Fatal("the read waited for the open exclusive transaction")
	}
	if rep := tx.call(wire.Request{Kind: wire.KindTxnAbort, Txn: 1}, time.Second); rep.Status != wire.StatusOK {
		t.Fatalf("abort: %v", rep.Status)
	}
	s.runFor(20 * time.Millisecond)
	for _, rep := range replies {
		if rep.Status != wire.StatusOK || string(rep.Result) != "n1 0/10\n" {
			t.Fatalf("read answered %v %q, want the committed %q", rep.Status, rep.Result, "n1 0/10\n")
		}
	}
}

// corpusWriteInsideExclusiveTxn: A's submit is in flight and B's
// dispatch queued behind it when C opens an exclusive transaction whose
// first op runs on the live state. Run after C's op, the dispatch picks
// C's uncommitted job, which the backups' replay does not know, and C's
// abort then restores the pre-transaction state over the acknowledged
// dispatch. No write may run between an exclusive transaction's first op
// and its end, so the dispatch waits for C and picks a committed job.
func corpusWriteInsideExclusiveTxn(t *testing.T) {
	p := netem.WAN(0)
	s := newSim(t, simConfig{seed: 9, profile: &p, noDisk: true, retry: time.Second,
		service: func(wire.NodeID, int) service.Service { return service.NewSched() }})
	s.awaitLeader(10 * time.Second)
	a, b, c := s.newClient(), s.newClient(), s.newClient()
	a.must(wire.KindWrite, service.SchedSubmit("j1", 1))
	var dispatched *wire.Reply
	a.do(wire.Request{Kind: wire.KindWrite, Op: service.SchedSubmit("j2", 1)}, func(wire.Reply) {})
	s.after(5*time.Millisecond, func() {
		b.do(wire.Request{Kind: wire.KindWrite, Op: service.SchedDispatch()}, func(rep wire.Reply) { dispatched = &rep })
	})
	s.runFor(10 * time.Millisecond)
	tx := c.begin()
	mustOK(t, "txn op", tx.do(service.SchedSubmit("jT", 9)))
	mustOK(t, "abort", tx.abort())
	if !s.runUntil(opLimit, func() bool { return dispatched != nil }) {
		t.Fatal("the dispatch was never answered")
	}
	if rep := *dispatched; rep.Status != wire.StatusOK || string(rep.Result) != "j1" {
		t.Fatalf("dispatch answered %v %q, want j1", rep.Status, rep.Result)
	}
	s.mustConverge()
	if got := b.must(wire.KindRead, service.SchedStatus()); string(got) != "j1 running\nj2 queued\n" {
		t.Fatalf("final state %q", got)
	}
}

// corpusAbortBesideWaveInFlight: A's submit is in flight, its accepts
// held back, when C opens an exclusive transaction, runs an op and
// aborts; the abort reaches the leader before the wave commits. The
// transaction ran on top of the wave's effect, which is not chosen yet:
// re-deriving the state from the chosen log alone would lose A's job on
// the leader for good, and the commit that follows would leave it
// behind its backups.
func corpusAbortBesideWaveInFlight(t *testing.T) {
	s := newSim(t, simConfig{seed: 11, service: func(wire.NodeID, int) service.Service { return service.NewSched() }})
	lead := s.awaitLeader(time.Second)
	a, c := s.newClient(), s.newClient()
	a.must(wire.KindWrite, service.SchedSubmit("j1", 1))
	release := s.holdAccepted()
	var submitted *wire.Reply
	a.do(wire.Request{Kind: wire.KindWrite, Op: service.SchedSubmit("j2", 1)}, func(rep wire.Reply) { submitted = &rep })
	s.runFor(5 * time.Millisecond)
	inFlight := s.nodes[lead].r.wave
	if inFlight == nil {
		t.Fatal("A's submit launched no wave")
	}
	tx := c.begin()
	mustOK(t, "txn op", tx.do(service.SchedSubmit("jT", 9)))
	mustOK(t, "abort", tx.abort())
	if s.nodes[lead].r.wave != inFlight {
		t.Fatal("A's wave committed before the abort reached the leader")
	}
	release()
	if !s.runUntil(opLimit, func() bool { return submitted != nil }) || submitted.Status != wire.StatusOK {
		t.Fatalf("A's submit: %+v", submitted)
	}
	if got := a.must(wire.KindRead, service.SchedStatus()); string(got) != "j1 queued\nj2 queued\n" {
		t.Fatalf("leader state %q after the abort", got)
	}
	s.mustConverge()
}

// corpusMutatingRead: a read-kind request carrying a put. Executed as a
// read on the leader's live state it changes that replica alone, outside
// consensus; a read runs through a view, which refuses every mutating
// op, so the request is answered with an error and nothing changes.
func corpusMutatingRead(t *testing.T) {
	s, c := kvSim(t, 7)
	c.must(wire.KindWrite, service.KVPut("a", []byte("committed")))
	if rep := c.call(wire.Request{Kind: wire.KindRead, Op: service.KVPut("a", []byte("evil"))}, opLimit); rep.Status != wire.StatusError {
		t.Fatalf("a put sent as a read answered %v %q, want an error", rep.Status, rep.Result)
	}
	if v, _ := c.get("a"); v != "committed" {
		t.Fatalf("a = %q after a put sent as a read, want committed", v)
	}
	s.mustConverge()
}

// corpusFullRestart writes n increments one at a time, crashes all three
// replicas at once and restarts them from their stores: every replica must
// come back with all n, and a leader must be elected. Compact once
// stripped effects below the commit index every 1,024 instances while the
// first durable snapshot came only at 4,096, so after 1,500 writes every
// replica rebooted at applied 0, no peer could serve the rest, and no
// leader ever appeared. The 1,000- and 5,000-write rows, which lie before
// the first Compact and past the first snapshot, guard the boot-time
// restore of the durable snapshot.
func corpusFullRestart(n int) func(t *testing.T) {
	return func(t *testing.T) {
		s := newSim(t, simConfig{seed: int64(n)})
		s.awaitLeader(time.Second)
		c := s.newClient()
		for i := 0; i < n; i++ {
			if rep := c.call(kvAdd("ctr"), time.Second); rep.Status != wire.StatusOK {
				t.Fatalf("write %d: %v", i, rep.Status)
			}
		}
		for _, node := range s.nodes {
			s.crash(node.id)
		}
		for _, node := range s.nodes {
			s.restart(node.id)
		}
		if !s.runUntil(5*time.Second, func() bool { _, ok := s.leader(); return ok }) {
			var at []string
			for _, node := range s.nodes {
				at = append(at, fmt.Sprintf("%d: applied=%d chosen=%d", node.id, node.r.Applied(), node.r.Chosen()))
			}
			t.Fatalf("no leader within 5s of the restart (%s)", strings.Join(at, ", "))
		}
		if !s.runUntil(5*time.Second, s.converged) {
			t.Fatal("the replicas did not converge")
		}
		for _, node := range s.nodes {
			res, _ := node.r.Service().Execute(service.KVGet("ctr"))
			if got, _ := service.KVInt(res); got != int64(n) {
				t.Fatalf("replica %d: counter %d after the restart, want %d", node.id, got, n)
			}
		}
		if len(s.violations) > 0 {
			t.Fatal(strings.Join(s.violations, "\n"))
		}
	}
}

// TestSimDemotionMidWave makes a leader lose its ballot with a wave in
// flight and more work queued behind it, in every state mode and with a
// membership change waiting to launch. The leader's sends to the other
// replicas are lost from the moment it launches them until a new leader
// is active, so nothing it ran speculatively can be chosen. When
// stepDown returns its service must be the chosen state: applied ==
// Chosen(), byte-equal to a replica that never led, with nothing left in
// flight or waiting. The run then heals, every client retries, and the
// replicas converge.
func TestSimDemotionMidWave(t *testing.T) {
	plainKV := func(wire.NodeID, int) service.Service { return struct{ service.Service }{service.NewKV()} }
	kv := func(wire.NodeID, int) service.Service { return service.NewKV() }
	sched := func(wire.NodeID, int) service.Service { return service.NewSched() }
	for i, row := range []struct {
		name    string
		service func(wire.NodeID, int) service.Service
		mode    stateMode
		warm    func(i int) []byte
		// launch puts work in flight on leader lead.
		launch func(s *sim, lead wire.NodeID, a, b *simClient)
	}{
		{"delta: a write and a T-Paxos commit", kv, stateDelta,
			func(i int) []byte { return service.KVPut(fmt.Sprint("k", i%4), []byte{byte(i)}) },
			func(s *sim, _ wire.NodeID, a, b *simClient) {
				a.do(wire.Request{Kind: wire.KindWrite, Op: service.KVAdd("k0", 7)}, func(wire.Reply) {})
				op := wire.Request{Kind: wire.KindTxnOp, Txn: 1, Op: service.KVPut("k1", []byte("txn"))}
				if rep := b.call(op, time.Second); rep.Status != wire.StatusOK {
					s.t.Fatalf("txn op: %v", rep.Status)
				}
				b.do(wire.Request{Kind: wire.KindTxnCommit, Txn: 1, TxnSeq: 1}, func(wire.Reply) {})
			}},
		{"replay: an exclusive transaction's commit", sched, stateReplay,
			func(i int) []byte { return service.SchedSubmit(fmt.Sprint("j", i), int64(i%3)) },
			func(s *sim, _ wire.NodeID, _, b *simClient) {
				for seq, op := range [][]byte{service.SchedSubmit("t", 9), service.SchedDispatch()} {
					req := wire.Request{Kind: wire.KindTxnOp, Txn: 1, TxnSeq: uint32(seq), Op: op}
					if rep := b.call(req, time.Second); rep.Status != wire.StatusOK {
						s.t.Fatalf("txn op %d: %v", seq, rep.Status)
					}
				}
				b.do(wire.Request{Kind: wire.KindTxnCommit, Txn: 1, TxnSeq: 2}, func(wire.Reply) {})
			}},
		{"full: a write wave and a queued write", plainKV, stateFull,
			func(i int) []byte { return service.KVPut(fmt.Sprint("k", i%4), []byte{byte(i)}) },
			func(_ *sim, _ wire.NodeID, a, b *simClient) {
				a.do(wire.Request{Kind: wire.KindWrite, Op: service.KVAdd("k0", 7)}, func(wire.Reply) {})
				b.do(wire.Request{Kind: wire.KindWrite, Op: service.KVPut("k1", []byte("w"))}, func(wire.Reply) {})
			}},
		{"configuration: a write and a membership change", kv, stateDelta,
			func(i int) []byte { return service.KVPut(fmt.Sprint("k", i%4), []byte{byte(i)}) },
			func(s *sim, lead wire.NodeID, a, _ *simClient) {
				a.do(wire.Request{Kind: wire.KindWrite, Op: service.KVAdd("k0", 7)}, func(wire.Reply) {})
				s.runUntil(time.Second, func() bool { return s.nodes[lead].r.wave != nil })
				s.control(lead, func(r *Replica) {
					if err := r.proposeConfig(wire.ConfigRemove, (lead+1)%3, ""); err != nil {
						s.t.Fatalf("propose: %v", err)
					}
					if r.configProp == nil {
						s.t.Fatal("the membership change launched beside the write's wave")
					}
				})
			}},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := newSim(t, simConfig{seed: int64(i + 1), service: row.service})
			lead := s.awaitLeader(time.Second)
			old := s.nodes[lead]
			if old.r.mode != row.mode {
				t.Fatalf("mode %d, want %d", old.r.mode, row.mode)
			}
			a, b := s.newClient(), s.newClient()
			for i := 0; i < 8; i++ {
				if rep := a.call(wire.Request{Kind: wire.KindWrite, Op: row.warm(i)}, time.Second); rep.Status != wire.StatusOK {
					t.Fatalf("write %d: %v", i, rep.Status)
				}
			}
			if !s.runUntil(time.Second, func() bool {
				for _, n := range s.nodes {
					if n.r.Applied() != old.r.Chosen() {
						return false
					}
				}
				return true
			}) {
				t.Fatal("the backups never applied the warm-up writes")
			}
			isolated := true
			s.drop = func(from wire.NodeID, env *wire.Envelope) bool {
				return isolated && from == lead && !env.To.IsClient()
			}
			row.launch(s, lead, a, b)
			if !s.runUntil(100*time.Millisecond, func() bool { return old.r.wave != nil }) {
				t.Fatal("no wave in flight")
			}
			stepped := false
			s.watch = func() {
				r := old.r
				if stepped || r.role != RoleBackup {
					return
				}
				stepped = true
				if r.Applied() != r.Chosen() || r.wave != nil || len(r.queue) > 0 || r.configProp != nil {
					t.Fatalf("stepped down at applied %d, chosen %d, with work in flight or waiting", r.Applied(), r.Chosen())
				}
				witnesses := 0
				for _, n := range s.nodes {
					if n != old && n.r.Applied() == r.Applied() {
						witnesses++
						if !bytes.Equal(n.r.Service().Snapshot(), r.Service().Snapshot()) {
							t.Fatalf("stepped down with state unlike replica %d's at applied %d", n.id, r.Applied())
						}
					}
				}
				if witnesses == 0 {
					t.Fatalf("no other replica at applied %d to compare with", r.Applied())
				}
			}
			s.suspect(lead)
			if !s.runUntil(time.Second, func() bool { l, ok := s.leader(); return ok && l != lead }) {
				t.Fatal("no new leader")
			}
			if !stepped {
				t.Fatal("the old leader never stepped down")
			}
			if n := old.r.stats.wavesRolledBack.Load(); n != 1 {
				t.Fatalf("%d waves re-derived past, want 1", n)
			}
			isolated = false
			if !s.runUntil(2*time.Second, func() bool { return !a.busy && !b.busy && s.converged() }) {
				t.Fatal("the replicas did not converge")
			}
			if len(s.violations) > 0 {
				t.Fatal(strings.Join(s.violations, "\n"))
			}
		})
	}
}

// TestSimSnapshotStream: a replica that lost its memory rejoins a cluster
// whose logs are pruned by pulling a snapshot of several chunks, one
// SnapReq per chunk. The schedule drops one chunk, which the requester
// re-pulls once the stream has been quiet for a RetryTimeout; then the
// serving peer goes silent, and past 4 × RetryTimeout the requester
// abandons the stream and the next peer serves it from the start.
func TestSimSnapshotStream(t *testing.T) {
	s := newSim(t, simConfig{seed: 5, opts: Options{SnapshotEvery: 8, PruneKeep: 2}})
	lead := s.awaitLeader(time.Second)
	c := s.newClient()
	val := bytes.Repeat([]byte{'v'}, 32<<10)
	for i := 0; i < 24; i++ {
		if rep := c.call(wire.Request{Kind: wire.KindWrite, Op: service.KVPut(fmt.Sprint("key-", i), val)}, time.Second); rep.Status != wire.StatusOK {
			t.Fatalf("write %d: %v", i, rep.Status)
		}
	}
	if !s.runUntil(5*time.Second, func() bool {
		for _, n := range s.nodes {
			if n.r.acc.PrunedTo() == 0 {
				return false
			}
		}
		return true
	}) {
		t.Fatal("the logs were never pruned")
	}
	if snap, _ := s.nodes[lead].r.acc.ServiceSnapshot(); len(snap) <= 2*snapChunkSize {
		t.Fatalf("the snapshot is %d bytes, want more than two %d-byte chunks", len(snap), snapChunkSize)
	}
	lag := (lead + 1) % 3
	s.crash(lag)
	s.nodes[lag].store = newSimStore() // memory loss: it returns at instance 0

	sent := map[wire.NodeID]int{} // chunks each peer got through to the lagger
	dropped, silenced := false, false
	var silent wire.NodeID
	s.drop = func(from wire.NodeID, env *wire.Envelope) bool {
		chunk, ok := env.Msg.(*wire.SnapChunk)
		switch {
		case !ok || env.To != lag:
			return false
		case silenced && from == silent:
			return true
		case chunk.Offset > 0 && !dropped:
			dropped = true
			return true
		}
		sent[from]++
		if dropped && !silenced {
			silenced, silent = true, from // the re-pulled chunk was its last
		}
		return false
	}
	s.restart(lag)
	if !s.runUntil(5*time.Second, s.converged) {
		t.Fatal("the lagger never caught up")
	}
	r := s.nodes[lag].r
	if !silenced {
		t.Fatal("the dropped chunk was never re-pulled")
	}
	if n := r.stats.catchupInstalls.Load(); n != 1 {
		t.Fatalf("%d snapshot installs, want 1", n)
	}
	if n := r.stats.catchupChunksIn.Load(); n < 3 {
		t.Fatalf("%d chunks received, want at least 3", n)
	}
	for _, n := range s.nodes {
		if n.id != lag && n.id != silent && sent[n.id] < 3 {
			t.Fatalf("the next peer, %d, sent %d chunks: it did not serve the whole stream", n.id, sent[n.id])
		}
	}
	if len(s.violations) > 0 {
		t.Fatal(strings.Join(s.violations, "\n"))
	}
}

// TestManySequentialLeaderSwitches cycles leadership twenty times under
// a fixed seed; state must survive every switch and the log stay dense.
func TestManySequentialLeaderSwitches(t *testing.T) {
	s := newSim(t, simConfig{seed: 3})
	c := s.newClient()
	et := s.nodes[0].r.cfg.ElectionTimeout
	total := 0
	for round := 0; round < 20; round++ {
		old := s.awaitLeader(20 * et)
		for i := 0; i < 4; i++ {
			if rep := c.call(kvAdd("ctr"), 20*et); rep.Status != wire.StatusOK {
				t.Fatalf("round %d write %d: %v", round, i, rep.Status)
			}
			total++
		}
		s.suspect(old)
		if !s.runUntil(20*et, func() bool { l, ok := s.leader(); return ok && l != old }) {
			t.Fatalf("round %d: no switch away from %d", round, old)
		}
	}
	rep := c.call(wire.Request{Kind: wire.KindRead, Op: service.KVGet("ctr")}, 20*et)
	if got, _ := service.KVInt(rep.Result); got != int64(total) {
		t.Fatalf("ctr = %d, want %d after 20 leader switches", got, total)
	}
	if !s.runUntil(20*et, s.converged) {
		t.Fatal("replicas did not converge")
	}
	if len(s.violations) > 0 {
		t.Fatal(strings.Join(s.violations, "\n"))
	}
}

// TestSimChurn is the churn soak: four clients increment one counter
// while a seeded plan switches leaders, crashes replicas (losing
// unflushed records), restarts them from their stores, and drops client
// traffic in bursts.
// Every seed must keep the exactly-once bracket, converge byte-equal, and
// have an active leader within ten election timeouts of its last fault.
func TestSimChurn(t *testing.T) {
	churnSeeds := int64(200)
	if raceEnabled {
		churnSeeds = 20
	}
	start := time.Now()
	steps, known := 0, 0
	var virtual time.Duration
	for seed := int64(1); seed <= churnSeeds; seed++ {
		s, dups := churn(t, seed)
		steps, known, virtual = steps+s.steps, known+dups, virtual+s.now.Sub(simEpoch)
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
	t.Logf("%d seeds, %d steps, %v virtual in %v wall; %d re-executions below an installed snapshot (ROADMAP)",
		churnSeeds, steps, virtual, time.Since(start), known)
}

// churn runs one seeded fault plan and returns the simulator and how
// many requests were re-executed by a leader whose log starts above
// their first instance — the open reply-cache gap (ROADMAP): a replica
// that installed a snapshot leads with an at-most-once cache rebuilt
// from the log above it. Any other duplicate fails the test.
func churn(t testing.TB, seed int64) (*sim, int) {
	s := newSim(t, simConfig{seed: seed})
	et := s.nodes[0].r.cfg.ElectionTimeout
	// Every request's instance as first seen chosen on any replica, how
	// far its proposer's log was pruned then, and the second instance of
	// a known-kind re-execution.
	type sighting struct{ inst, pruned, dup uint64 }
	chosen, scanned, known := map[wire.Key]sighting{}, map[*Replica]uint64{}, 0
	s.watch = func() {
		for _, n := range s.nodes {
			if n.r == nil {
				continue
			}
			for inst := max(scanned[n.r], n.r.acc.PrunedTo()) + 1; inst <= n.r.acc.Chosen(); inst++ {
				e, ok := n.r.acc.Get(inst)
				if !ok {
					break
				}
				scanned[n.r] = inst
				var pruned uint64
				if p := s.nodes[e.Bal.Node].r; p != nil {
					pruned = p.acc.PrunedTo()
				}
				for _, q := range e.Prop.Reqs {
					c, seen := chosen[q.Key()]
					if !seen {
						chosen[q.Key()] = sighting{inst: inst, pruned: pruned}
						continue
					}
					if inst == c.inst || inst == c.dup {
						continue
					}
					// The later instance re-executed the request: the known
					// kind if its proposer's log no longer held the earlier.
					laterPruned := pruned
					if inst < c.inst {
						laterPruned = c.pruned
					}
					if c.dup != 0 || laterPruned < min(inst, c.inst) {
						t.Errorf("seed %d: %v chosen at %d and %d", seed, q.Key(), c.inst, inst)
						continue
					}
					c.dup = inst
					chosen[q.Key()] = c
					known++
				}
			}
		}
	}
	s.awaitLeader(time.Second)
	stop := s.now.Add(3 * time.Second)
	acked := 0
	clients := make([]*simClient, 4)
	for i := range clients {
		clients[i] = s.newClient()
		clients[i].loop(stop, func() wire.Request { return kvAdd("ctr") }, &acked)
	}
	lastFault := s.now
	fault := func() { lastFault = s.now }
	var plan func()
	plan = func() {
		if !s.now.Before(stop) {
			return
		}
		s.after(150*time.Millisecond, plan)
		fault()
		leader, hasLeader := s.leader()
		switch pick := s.rng.Intn(8); {
		case pick < 3: // leader switch
			if hasLeader {
				s.suspect(leader)
			}
		case pick < 6: // crash a backup (2) or the leader (1), restart it later
			var victims []wire.NodeID
			for _, n := range s.nodes {
				if n.r != nil && (n.id == leader && hasLeader) == (pick == 5) {
					victims = append(victims, n.id)
				}
			}
			if len(victims) > 0 {
				id := victims[s.rng.Intn(len(victims))]
				s.crash(id)
				s.after(100*time.Millisecond, func() { s.restart(id); fault() })
			}
		default: // loss burst between clients and replicas
			s.model.SetLoss(netem.ClassClient, netem.ClassReplica, 0.25)
			s.model.SetLoss(netem.ClassReplica, netem.ClassClient, 0.25)
			s.after(50*time.Millisecond, func() {
				s.model.SetLoss(netem.ClassClient, netem.ClassReplica, 0)
				s.model.SetLoss(netem.ClassReplica, netem.ClassClient, 0)
				fault()
			})
		}
	}
	s.after(150*time.Millisecond, plan)
	s.runFor(stop.Sub(s.now) + 100*time.Millisecond) // every restart has fired
	if !s.runUntil(10*et-s.now.Sub(lastFault), func() bool { _, ok := s.leader(); return ok }) {
		t.Errorf("seed %d: no active leader within 10 election timeouts of the last fault", seed)
		return s, known
	}
	inDoubt := func() (n int) {
		for _, c := range clients {
			if c.busy {
				n++
			}
		}
		return n
	}
	s.runUntil(5*time.Second, func() bool { return inDoubt() == 0 })
	if !s.runUntil(5*time.Second, s.converged) {
		t.Errorf("seed %d: replicas did not converge", seed)
		return s, known
	}
	res, _ := s.nodes[0].r.Service().Execute(service.KVGet("ctr"))
	got, _ := service.KVInt(res)
	if lo, hi := int64(acked), int64(acked+inDoubt()+known); got < lo || got > hi {
		t.Errorf("seed %d: counter %d outside [%d, %d]: lost or duplicated increments", seed, got, lo, hi)
	}
	if len(s.violations) > 0 {
		t.Errorf("seed %d: %s", seed, strings.Join(s.violations, "\n"))
	}
	return s, known
}

// BenchmarkSimClock measures simulated seconds per wall second on the
// reference workload: three replicas, a 64-key KV, 25 ms heartbeats and
// ten writes a second.
func BenchmarkSimClock(b *testing.B) {
	s := newSim(b, simConfig{seed: 1, opts: Options{HeartbeatInterval: 25 * time.Millisecond}})
	s.awaitLeader(time.Second)
	c, n := s.newClient(), 0
	var write func()
	write = func() {
		n++
		c.do(wire.Request{Kind: wire.KindWrite, Op: service.KVPut(fmt.Sprint("k", n%64), []byte("value"))}, func(wire.Reply) {})
		s.after(100*time.Millisecond, write)
	}
	write()
	b.ResetTimer()
	start := time.Now()
	s.runFor(time.Duration(b.N) * time.Second)
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "sim-s/s")
}
