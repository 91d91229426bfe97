package core

import (
	"testing"
	"time"

	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// The read path's seams: schedules where a read reaches one replica now
// and the others later, which a client's broadcast never produces. A
// rawReader sends hand-built reads and records every reply.

type rawReader struct {
	*simClient
	got []wire.Reply
}

func (s *sim) rawReader() *rawReader {
	rr := &rawReader{simClient: s.newClient()}
	rr.raw = func(rep wire.Reply) { rr.got = append(rr.got, rep) }
	return rr
}

// answer is the first reply to seq, if any.
func (rr *rawReader) answer(seq uint64) *wire.Reply {
	for i := range rr.got {
		if rr.got[i].Seq == seq {
			return &rr.got[i]
		}
	}
	return nil
}

// read builds a read of key at seq, stamped Near when near is set.
func (rr *rawReader) read(seq uint64, op []byte, near *wire.NodeID) wire.Request {
	req := wire.Request{Client: rr.id, Seq: seq, Kind: wire.KindRead, Op: op}
	if near != nil {
		req.Near, req.NearSet = *near, true
	}
	return req
}

func wantValue(t *testing.T, rep wire.Reply, want string) {
	t.Helper()
	if rep.Status != wire.StatusOK {
		t.Fatalf("reply status %v (%s), want OK", rep.Status, rep.Err)
	}
	if v, _ := service.KVReply(rep.Result); string(v) != want {
		t.Fatalf("read returned %q, want %q", v, want)
	}
}

// TestServedReadsLeaveNoHeldConfirms: on three replicas every read is
// served on the leader's own vote plus the first confirm, so the second
// confirm arrives for a read that no longer exists and is held as if it
// had outrun its request. Those age out with the sweep — two sweep
// periods of one ElectionTimeout each — instead of sitting in the buffer,
// and counting against its cap, for the rest of the term.
func TestServedReadsLeaveNoHeldConfirms(t *testing.T) {
	s, c := kvSim(t, 91)
	c.must(wire.KindWrite, service.KVPut("k", []byte("v")))
	for i := 0; i < 50; i++ {
		c.get("k")
	}
	lead, _ := s.leader()
	r := s.nodes[lead].r
	if len(r.confirmBuf) == 0 {
		t.Fatal("no late confirm was held: the schedule tests nothing")
	}
	s.runFor(3 * r.cfg.ElectionTimeout)
	if len(r.reads) != 0 || len(r.confirmBuf) != 0 {
		t.Fatalf("%d reads pending, %d keys of confirms held three election timeouts on", len(r.reads), len(r.confirmBuf))
	}
}

// TestAbandonedLeaderReadExpires: a read that reached only the leader —
// so no backup ever confirms it — from a client that never retries must
// not live in the pending table until the next step-down. The sweep
// expires it one ElectionTimeout after it registered and tells the
// client to retry, with the leader still active.
func TestAbandonedLeaderReadExpires(t *testing.T) {
	s, _ := kvSim(t, 92)
	lead, _ := s.leader()
	r := s.nodes[lead].r
	rr := s.rawReader()
	rr.sendTo(rr.read(1, service.KVGet("k"), nil), lead)
	if !s.runUntil(time.Second, func() bool { return len(r.reads) == 1 }) {
		t.Fatal("the read never registered")
	}
	registered := s.now
	if !s.runUntil(time.Second, func() bool { return len(rr.got) > 0 }) {
		t.Fatalf("no reply to a read whose quorum cannot complete (%d still pending)", len(r.reads))
	}
	if rep := rr.got[0]; rep.Status != wire.StatusNotLeader || rep.Err != "read expired" {
		t.Fatalf("reply %+v, want NotLeader (read expired)", rep)
	}
	if waited := s.now.Sub(registered); waited < r.cfg.ElectionTimeout || waited > r.cfg.ElectionTimeout+r.cfg.HeartbeatInterval+time.Millisecond {
		t.Fatalf("the read expired %v after registering, want one ElectionTimeout (%v) plus at most a tick and the link", waited, r.cfg.ElectionTimeout)
	}
	if len(r.reads) != 0 || !r.IsActiveLeader() {
		t.Fatalf("%d reads pending, leader active %v: the read was not answered by the sweep", len(r.reads), r.IsActiveLeader())
	}
}

// seamSim is a KV cluster with 50 ms heartbeats holding one acknowledged
// overwrite, so that a stale answer is distinguishable from the right
// one.
func seamSim(t *testing.T, seed int64, opts Options) *sim {
	t.Helper()
	opts.HeartbeatInterval = 50 * time.Millisecond
	s := newSim(t, simConfig{seed: seed, opts: opts})
	s.awaitLeader(time.Second)
	c := s.newClient()
	for _, v := range []string{"stale", "fresh"} {
		c.must(wire.KindWrite, service.KVPut("k", []byte(v)))
	}
	return s
}

// nearReadAcrossElection produces the schedule behind seams (a) and (b):
// a read stamped Near = X reaches X alone while X is a backup — so it
// registers with only X's own vote — and X then wins leadership and
// activates with the read still pending. The leader is crashed and X is
// the survivor Ω entitles; the read is sent six tenths into the
// detection window, because detection and read expiry both take one
// ElectionTimeout and the read must outlive the election.
func nearReadAcrossElection(t *testing.T) (s *sim, rr *rawReader, read wire.Request, x wire.NodeID) {
	t.Helper()
	const electionTimeout = time.Second
	s = seamSim(t, 93, Options{ElectionTimeout: electionTimeout})
	rr = s.rawReader()
	old, _ := s.leader()
	x = s.others(old)[0] // the lowest survivor: the one Ω entitles
	s.crash(old)
	s.runFor(electionTimeout * 6 / 10)

	read = rr.read(1, service.KVGet("k"), &x)
	rr.sendTo(read, x)
	xr := s.nodes[x].r
	if !s.runUntil(time.Second, func() bool { return len(xr.reads) == 1 }) {
		t.Fatal("the near read never registered")
	}
	if xr.IsActiveLeader() {
		t.Fatal("X already leads: the read did not register at a backup")
	}
	if !s.runUntil(2*electionTimeout, xr.IsActiveLeader) {
		t.Fatal("X never won leadership")
	}
	if len(xr.reads) != 1 || len(rr.got) != 0 {
		t.Fatalf("the near read did not survive its server's election (%d pending, replies %+v)", len(xr.reads), rr.got)
	}
	return s, rr, read, x
}

// TestNearReadSurvivesServerWinningLeadership is seam (a): the read
// registers with a backup's horizon and completes on evidence only a
// leader may count. It is served exactly once, with the acknowledged
// value.
func TestNearReadSurvivesServerWinningLeadership(t *testing.T) {
	s, rr, read, x := nearReadAcrossElection(t)
	// The rest of the client's broadcast arrives: the surviving backup
	// vouches to X, now the active leader of the ballot it promised.
	rr.sendTo(read, s.others(x)...)
	s.runFor(time.Second)
	if len(rr.got) != 1 {
		t.Fatalf("near read answered %d times after its server won leadership: %+v", len(rr.got), rr.got)
	}
	wantValue(t, rr.got[0], "fresh")
	if rr.got[0].Leader != x {
		t.Fatalf("read answered by %d, want its near replica %d", rr.got[0].Leader, x)
	}
}

// TestNearReadAnsweredNotLeaderOnDemotion is seam (b): step-down answers
// every pending read, near ones included, and the client's unstamped
// rebroadcast then succeeds on the leader path.
func TestNearReadAnsweredNotLeaderOnDemotion(t *testing.T) {
	s, rr, read, x := nearReadAcrossElection(t)
	// A candidate's prepare at a higher ballot deposes X.
	bal := s.nodes[x].r.Ballot()
	s.inject(rr.id, x, &wire.Prepare{Bal: wire.Ballot{Round: bal.Round + 1, Node: s.others(x)[0]}})
	if !s.runUntil(time.Second, func() bool { return len(rr.got) > 0 }) {
		t.Fatal("the pending near read got no answer when its server was demoted")
	}
	if rep := rr.got[0]; rep.Status != wire.StatusNotLeader || rep.Leader != x || rep.Err != "leader switch" {
		t.Fatalf("reply %+v, want NotLeader (leader switch) from %d", rep, x)
	}
	read.Near, read.NearSet = 0, false
	for try := 0; ; try++ {
		rr.got = nil
		rr.sendTo(read, s.peers()...)
		s.runFor(200 * time.Millisecond)
		if len(rr.got) > 0 && rr.got[0].Status == wire.StatusOK {
			wantValue(t, rr.got[0], "fresh")
			return
		}
		if try == 50 {
			t.Fatal("the rebroadcast of the demoted near read never succeeded on the leader path")
		}
	}
}

// TestNearReadAtLeaderAnsweredFromCommitPoint is seam (d): a near read
// registered at an active leader when a write's wave launches is
// answered, once its quorum completes, from the view pinned before that
// wave executed — the state at the commit point — while the wave is
// still in flight. It never shows the wave's uncommitted write, and it
// does not wait for the wave.
func TestNearReadAtLeaderAnsweredFromCommitPoint(t *testing.T) {
	s := seamSim(t, 94, Options{RetryTimeout: 50 * time.Millisecond})
	lead, _ := s.leader()
	r := s.nodes[lead].r
	rr := s.rawReader()
	read := rr.read(1, service.KVGet("k"), &lead)
	rr.sendTo(read, lead) // registers with the leader's own vote only
	if !s.runUntil(time.Second, func() bool { return len(r.reads) == 1 }) {
		t.Fatal("the read never registered")
	}

	// A write the leader executes and proposes but cannot commit.
	backups := s.others(lead)
	for _, b := range backups {
		s.model.Cut(lead, b)
	}
	write := wire.Request{Client: rr.id, Seq: 2, Kind: wire.KindWrite, Op: service.KVPut("k", []byte("speculative"))}
	rr.sendTo(write, lead)
	if !s.runUntil(time.Second, func() bool { return r.wave != nil }) {
		t.Fatal("the wave never launched")
	}

	// The backup's confirm, as it would have arrived: the quorum
	// completes with the write's wave still in flight.
	before := r.Chosen()
	s.inject(rr.id, lead, &wire.Confirm{Bal: r.Ballot(), From: backups[0], Reads: []wire.Key{read.Key()}})
	var rep *wire.Reply
	if !s.runUntil(100*time.Millisecond, func() bool { rep = rr.answer(read.Seq); return rep != nil }) {
		t.Fatal("the read waited for the wave in flight")
	}
	wantValue(t, *rep, "fresh")
	if r.wave == nil || r.Chosen() != before {
		t.Fatalf("the wave committed (chosen %d, was %d) before the read was answered", r.Chosen(), before)
	}

	for _, b := range backups {
		s.model.Heal(lead, b)
	}
	if !s.runUntil(time.Second, func() bool { return rr.answer(write.Seq) != nil }) {
		t.Fatal("the write never committed after the heal")
	}
	rr.sendTo(rr.read(3, service.KVGet("k"), &lead), s.peers()...)
	if !s.runUntil(time.Second, func() bool { rep = rr.answer(3); return rep != nil }) {
		t.Fatal("the read after the commit was never answered")
	}
	wantValue(t, *rep, "speculative")
}

// TestReadAnsweredWhileExclusiveTxnOpen: a serialized service executes
// a transaction's operations directly against its live state, so reads
// run on the view pinned before the transaction's first op. A read that
// registered before the transaction began and one sent while it is open
// are both answered while it is still open, with the state before it;
// neither shows effects that the abort then erases.
func TestReadAnsweredWhileExclusiveTxnOpen(t *testing.T) {
	s := newSim(t, simConfig{seed: 95, service: brokers(301), opts: Options{HeartbeatInterval: 50 * time.Millisecond}})
	lead := s.awaitLeader(time.Second)
	r := s.nodes[lead].r
	c := s.newClient()
	c.must(wire.KindWrite, service.BrokerRegister("n1", 10))
	rr := s.rawReader()
	early := rr.read(1, service.BrokerList(), nil)
	rr.sendTo(early, lead) // registers with the leader's own vote only
	if !s.runUntil(time.Second, func() bool { return len(r.reads) == 1 }) {
		t.Fatal("the read never registered")
	}

	tx := c.begin()
	mustOK(t, "txn op", tx.do(service.BrokerRequest(3)))
	s.inject(rr.id, lead, &wire.Confirm{Bal: r.Ballot(), From: s.others(lead)[0], Reads: []wire.Key{early.Key()}})
	late := rr.read(2, service.BrokerList(), nil)
	rr.sendTo(late, s.peers()...)
	if !s.runUntil(time.Second, func() bool { return rr.answer(early.Seq) != nil && rr.answer(late.Seq) != nil }) {
		t.Fatalf("reads answered %+v while the exclusive transaction is open, want both", rr.got)
	}
	if len(r.txns) != 1 {
		t.Fatal("the transaction ended before the reads were answered")
	}
	mustOK(t, "abort", tx.abort())
	for _, rep := range rr.got {
		if rep.Status != wire.StatusOK || string(rep.Result) != "n1 0/10\n" {
			t.Fatalf("read returned %v %q, want the state before the transaction", rep.Status, rep.Result)
		}
	}
	if list := c.must(wire.KindRead, service.BrokerList()); string(list) != "n1 0/10\n" {
		t.Fatalf("state after the abort: %q", list)
	}
}
