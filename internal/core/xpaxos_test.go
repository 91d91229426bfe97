package core

import (
	"testing"
	"time"

	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// X-Paxos reads (§3.4): a read is vouched by a majority's confirms, not
// ordered through the log.

// TestReadsConsumeNoLogInstances: reads are not consensus instances, so
// ten of them leave the commit index and the accept count where they
// were.
func TestReadsConsumeNoLogInstances(t *testing.T) {
	s, c := kvSim(t, 81)
	c.must(wire.KindWrite, service.KVPut("k", []byte("v")))
	lead, _ := s.leader()
	before, accepts := s.nodes[lead].r.Chosen(), s.msgs[wire.MsgAccept]
	for i := 0; i < 10; i++ {
		c.get("k")
	}
	if after := s.nodes[lead].r.Chosen(); after != before || s.msgs[wire.MsgAccept] != accepts {
		t.Fatalf("reads consumed %d log instances and %d accepts", after-before, s.msgs[wire.MsgAccept]-accepts)
	}
}

// TestDeposedLeaderCannotServeReads is §3.4's safety claim: only the
// leader of the highest ballot can assemble a read quorum. The old leader
// is cut off from the other replicas, which alone distrust it: hearing
// nothing, it goes on believing it leads while they elect a new leader
// and commit a write it never sees. It must then serve no read, whatever
// evidence reaches it.
func TestDeposedLeaderCannotServeReads(t *testing.T) {
	s, c := kvSim(t, 82)
	c.must(wire.KindWrite, service.KVPut("k", []byte("v1")))
	old, _ := s.leader()
	for _, id := range s.others(old) {
		s.model.Cut(old, id)
		s.control(id, func(r *Replica) { r.Elector().Suspect(old) })
	}
	var lead wire.NodeID
	if !s.runUntil(time.Second, func() bool {
		for _, id := range s.others(old) {
			if s.nodes[id].r.IsActiveLeader() {
				lead = id
				return true
			}
		}
		return false
	}) {
		t.Fatal("no new leader emerged")
	}
	// The write must not reach the old leader: a wave it can never
	// commit would block its reads by itself, and the point is that the
	// read rule does.
	s.model.Cut(old, c.id)
	c.must(wire.KindWrite, service.KVPut("k", []byte("v2")))
	s.model.Heal(old, c.id)
	if v, _ := c.get("k"); v != "v2" {
		t.Fatalf("read returned %q — a deposed leader served a stale read", v)
	}
	if !s.nodes[old].r.IsActiveLeader() {
		t.Fatal("the old leader stepped down; the schedule needs it to believe it leads")
	}
	newBal, chosen := s.nodes[lead].r.Ballot(), s.nodes[lead].r.Chosen()
	forger := wire.ClientIDBase + 921

	// Evidence by ballot: a confirm under the new ballot, unstamped as an
	// old peer sends it, for a read that reached the old leader alone.
	// It vouches for nothing there — the old leader does not lead that
	// ballot — so the read must expire unanswered.
	rr := s.rawReader()
	read := rr.read(1, service.KVGet("k"), nil)
	rr.sendTo(read, old)
	if !s.runUntil(time.Second, func() bool { return s.nodes[old].r.reads[read.Key()] != nil }) {
		t.Fatal("the read never registered at the old leader")
	}
	s.inject(forger, old, &wire.Confirm{Bal: newBal, From: lead, Reads: []wire.Key{read.Key()}})
	s.runFor(2 * s.nodes[old].r.cfg.ElectionTimeout)
	if got := rr.got; len(got) != 1 || got[0].Status != wire.StatusNotLeader || got[0].Err != "read expired" {
		t.Fatalf("a read at the deposed leader with a foreign-ballot confirm was answered %+v, want one expiry", got)
	}

	// Evidence by stamp: a client pinned to the deposed leader as its
	// nearest replica, and the stamped confirm a backup that moved to the
	// new ballot sends there, delivered by hand past the cut. The stamp
	// counts in any role, so the old leader has its quorum; what stops it
	// is the barrier the stamp carries, which its state never reaches. The
	// read expires, and the client's unstamped rebroadcast is served by
	// the new leader.
	near := s.newClient()
	var rep *wire.Reply
	near.do(wire.Request{Kind: wire.KindRead, Op: service.KVGet("k"), Near: old, NearSet: true}, func(r wire.Reply) { rep = &r })
	s.inject(forger, old, &wire.Confirm{Bal: newBal, From: lead, Reads: []wire.Key{near.req.Key()},
		MaxAcc: chosen, MaxAccSet: true})
	if !s.runUntil(time.Second, func() bool { return rep != nil }) {
		t.Fatal("the near read was never answered")
	}
	if v, _ := service.KVReply(rep.Result); rep.Leader == old || string(v) != "v2" {
		t.Fatalf("near read answered %q by %d — a deposed leader served a stale read on stamp evidence", v, rep.Leader)
	}
}

// TestReadsWaitForInFlightWrites: a read that starts while writes are in
// flight sees every write acknowledged before it started (the barrier
// rule) — TestReadLinearizability's bracket with batching on.
func TestReadsWaitForInFlightWrites(t *testing.T) {
	s, _ := kvSim(t, 83)
	readLinearizability(t, s)
}

// TestXPaxosLatencyAlgebra verifies the §3.4 latency claims on the WAN
// profile, where they are starkest: original = 2M, read = 2M + max(E, m)
// and write = 2M + E + 2m, every sample to the nanosecond, so a read
// costs about an original and a write the backup round trip 2m more.
func TestXPaxosLatencyAlgebra(t *testing.T) {
	r := measureRRT(t, "wan", netem.WAN(0), 3)
	if ok, detail := rrtExact(r); !ok {
		t.Fatalf("WAN response times differ from the §3.4 model: %s", detail)
	}
	orig, read, write := r.lo[0], r.lo[1], r.lo[2]
	t.Logf("WAN RRT: original=%v read=%v write=%v (paper: 70.8 / 75.5 / 106.7 ms)", orig, read, write)
	if write < orig+25*time.Millisecond {
		t.Errorf("write (%v) should exceed original (%v) by ≈2m=35ms", write, orig)
	}
	if read > orig+15*time.Millisecond {
		t.Errorf("read (%v) should be within a few ms of original (%v)", read, orig)
	}
	if read >= write {
		t.Errorf("X-Paxos read (%v) must beat the basic protocol write (%v)", read, write)
	}
}

// TestConfirmBufferedBeforeRead: on the WAN profile a client is nearer
// the backups than the leader, so backup confirms reach the leader before
// the client's own request. The leader holds them, and the reads
// complete.
func TestConfirmBufferedBeforeRead(t *testing.T) {
	p := netem.WAN(0)
	s := newSim(t, simConfig{seed: 84, profile: &p, noDisk: true})
	lead := s.awaitLeader(10 * time.Second)
	held := 0
	s.watch = func() { held = max(held, len(s.nodes[lead].r.confirmBuf)) }
	c := s.newClient()
	for i := 0; i < 5; i++ {
		c.must(wire.KindRead, service.KVGet("k"))
	}
	if held == 0 {
		t.Fatal("no confirm ever outran its read to the leader")
	}
}

// TestWANReadAtCommitPoint: on the WAN profile a read costs the §3.4
// read 2M + max(E, m) whatever writes are open beside it, because it
// executes on the state at the commit point (DESIGN.md §18). A read that
// registered before a write's wave launched, one that registered after
// it launched, and one sent while an exclusive Sched transaction is
// open all answer in the time of a read alone and show the state before
// the open work: every wave carries the view pinned before it executed.
func TestWANReadAtCommitPoint(t *testing.T) {
	p := netem.WAN(0)
	s := newSim(t, simConfig{seed: 9, profile: &p, noDisk: true, retry: time.Second,
		service: func(wire.NodeID, int) service.Service { return service.NewSched() }})
	s.awaitLeader(10 * time.Second)
	w, rd := s.newClient(), s.newClient()
	w.must(wire.KindWrite, service.SchedSubmit("j1", 1))
	// read times a status read started offset after w starts the chain
	// reqs (a negative offset starts the read first) and returns its
	// response time and result once the chain is answered too.
	read := func(offset time.Duration, reqs ...wire.Request) (time.Duration, string) {
		t.Helper()
		var rep *wire.Reply
		var took time.Duration
		issue := func() {
			start := s.now
			rd.do(wire.Request{Kind: wire.KindRead, Op: service.SchedStatus()}, func(r wire.Reply) {
				rep, took = &r, s.now.Sub(start)
			})
		}
		chain := func() { w.mustChain("writes", reqs, func() {}) }
		if offset < 0 {
			issue()
			s.after(-offset, chain)
		} else {
			chain()
			s.after(offset, issue)
		}
		if !s.runUntil(time.Second, func() bool { return rep != nil && !w.busy }) || rep.Status != wire.StatusOK {
			t.Fatalf("read beside %v: %+v", reqs, rep)
		}
		return took, string(rep.Result)
	}
	submit := func(job string) wire.Request {
		return wire.Request{Kind: wire.KindWrite, Op: service.SchedSubmit(job, 1)}
	}
	check := func(what string, took, want time.Duration, got, wantState string) {
		t.Helper()
		t.Logf("%s: %v", what, took)
		if took != want || got != wantState {
			t.Errorf("%s answered %q after %v, want %q after %v", what, got, took, wantState, want)
		}
	}
	alone, state := read(0)
	check("read alone", alone, latencyModel(p)[1], state, "j1 queued\n")

	took, state := read(-2*time.Millisecond, submit("j2"))
	check("read registered 2 ms before a write's wave launched", took, alone, state, "j1 queued\n")

	took, state = read(2*time.Millisecond, submit("j3"))
	check("read registered 2 ms after a write's wave launched", took, alone, state, "j1 queued\nj2 queued\n")

	took, state = read(2*time.Millisecond,
		wire.Request{Kind: wire.KindTxnOp, Txn: 1, Op: service.SchedSubmit("jT", 9)},
		wire.Request{Kind: wire.KindTxnCommit, Txn: 1, TxnSeq: 1})
	check("read while an exclusive transaction is open", took, alone, state, "j1 queued\nj2 queued\nj3 queued\n")
	took, state = read(0)
	check("read after the commit", took, alone, state, "j1 queued\nj2 queued\nj3 queued\njT queued\n")
}

// TestDurableReadBesideFlushingWave: with disks (Sysnet, 0.2-2 ms
// flushes, as in the golden's durable-write scenario), a leader read
// issued while a write's wave is in flight and both backups are
// flushing its accept answers in the time of a read alone, with the
// state before the wave. The leader reads the view pinned before the
// wave, and a backup's confirm, whose ballot's promise is long durable,
// leaves without waiting for the flush (DESIGN.md §9, §18).
func TestDurableReadBesideFlushingWave(t *testing.T) {
	p := netem.Sysnet()
	s := newSim(t, simConfig{seed: 12, profile: &p, retry: time.Second})
	lead := s.awaitLeader(time.Second)
	w, rd := s.newClient(), s.newClient()
	w.must(wire.KindWrite, service.KVPut("k", []byte("v1")))
	read := func() (time.Duration, string) {
		t.Helper()
		start := s.now
		v, _ := service.KVReply(rd.must(wire.KindRead, service.KVGet("k")))
		return s.now.Sub(start), string(v)
	}
	alone, v := read()
	if v != "v1" {
		t.Fatalf("read alone answered %q, want v1", v)
	}
	written := false
	w.do(wire.Request{Kind: wire.KindWrite, Op: service.KVPut("k", []byte("v2"))}, func(wire.Reply) { written = true })
	flushing := func() bool {
		for _, n := range s.nodes {
			if n.id != lead && !n.flushing {
				return false
			}
		}
		return true
	}
	if !s.runUntil(time.Second, flushing) || written || s.nodes[lead].r.wave == nil {
		t.Fatal("no point with the write's wave in flight and both backups flushing its accept")
	}
	took, v := read()
	t.Logf("read alone %v; beside the flushing wave %v", alone, took)
	if took != alone || v != "v1" {
		t.Errorf("read beside the flushing wave answered %q after %v, want v1 after %v", v, took, alone)
	}
	if !s.runUntil(time.Second, func() bool { return written }) {
		t.Fatal("the write never committed")
	}
}
