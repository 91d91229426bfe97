package core

import (
	"fmt"
	"testing"
	"time"

	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// T-Paxos (§3.5-3.6) at wire level: transaction operations run on the
// leader alone, the commit is one consensus instance, and a leader
// switch aborts what is open.

// mustOK fails the test unless rep is OK.
func mustOK(t *testing.T, what string, rep wire.Reply) wire.Reply {
	t.Helper()
	if rep.Status != wire.StatusOK {
		t.Fatalf("%s: %v %s", what, rep.Status, rep.Err)
	}
	return rep
}

func TestTxnCommitAppliesAtomically(t *testing.T) {
	s, c := kvSim(t, 61)
	tx := c.begin()
	mustOK(t, "op a", tx.do(service.KVPut("a", []byte("1"))))
	mustOK(t, "op b", tx.do(service.KVPut("b", []byte("2"))))
	// Before the commit a plain read of a locked key hits the 2PL lock —
	// §3.5's "locks or other mechanisms" — rather than seeing
	// uncommitted state; a read of an untouched key proceeds.
	if rep := c.call(wire.Request{Kind: wire.KindRead, Op: service.KVGet("a")}, opLimit); rep.Status != wire.StatusError {
		t.Fatalf("read of a locked key answered %v %q, want a lock conflict", rep.Status, rep.Result)
	}
	if _, found := c.get("c"); found {
		t.Fatal("phantom key visible")
	}
	mustOK(t, "commit", tx.commit())
	for k, want := range map[string]string{"a": "1", "b": "2"} {
		if v, _ := c.get(k); v != want {
			t.Fatalf("%s = %q, want %q", k, v, want)
		}
	}
	s.mustConverge()
}

func TestTxnAbortDiscards(t *testing.T) {
	_, c := kvSim(t, 62)
	c.must(wire.KindWrite, service.KVPut("a", []byte("base")))
	tx := c.begin()
	mustOK(t, "op", tx.do(service.KVPut("a", []byte("txn"))))
	mustOK(t, "abort", tx.abort())
	if v, _ := c.get("a"); v != "base" {
		t.Fatalf("a = %q after abort, want base", v)
	}
}

func TestTxnOpsSeeOwnWrites(t *testing.T) {
	_, c := kvSim(t, 63)
	tx := c.begin()
	mustOK(t, "op", tx.do(service.KVAdd("acct", 100)))
	if n, _ := service.KVInt(mustOK(t, "op", tx.do(service.KVAdd("acct", -30))).Result); n != 70 {
		t.Fatalf("in-txn balance = %d, want 70", n)
	}
	mustOK(t, "commit", tx.commit())
}

// TestTxnConflictAborts: a second transaction touching a key the first
// holds is wounded; the first is unaffected.
func TestTxnConflictAborts(t *testing.T) {
	_, c := kvSim(t, 64)
	tx1, tx2 := c.begin(), c.begin()
	mustOK(t, "tx1 op", tx1.do(service.KVPut("k", []byte("1"))))
	if rep := tx2.do(service.KVPut("k", []byte("2"))); rep.Status != wire.StatusAborted {
		t.Fatalf("conflicting txn op answered %v, want Aborted", rep.Status)
	}
	if rep := tx2.commit(); rep.Status != wire.StatusAborted {
		t.Fatalf("commit of the wounded txn answered %v, want Aborted", rep.Status)
	}
	mustOK(t, "tx1 commit", tx1.commit())
	if v, _ := c.get("k"); v != "1" {
		t.Fatalf("k = %q, want tx1's 1", v)
	}
}

func TestTxnInterleavedDisjointKeys(t *testing.T) {
	s, c1 := kvSim(t, 65)
	c2 := s.newClient()
	tx1, tx2 := c1.begin(), c2.begin()
	mustOK(t, "tx1 op", tx1.do(service.KVPut("x", []byte("1"))))
	mustOK(t, "disjoint concurrent txn op", tx2.do(service.KVPut("y", []byte("2"))))
	mustOK(t, "tx1 commit", tx1.commit())
	mustOK(t, "tx2 commit", tx2.commit())
	if v, _ := c1.get("y"); v != "2" {
		t.Fatalf("y = %q", v)
	}
}

// TestTxnLeaderSwitchAborts is §3.6: "if the leader switches during the
// transaction, the previous leader ... cannot commit, and the
// transaction has to be aborted" — and nothing it wrote leaks.
func TestTxnLeaderSwitchAborts(t *testing.T) {
	s, c := kvSim(t, 66)
	tx := c.begin()
	mustOK(t, "op", tx.do(service.KVPut("k", []byte("txn"))))
	old, _ := s.leader()
	s.crash(old)
	if rep := tx.commit(); rep.Status != wire.StatusAborted {
		t.Fatalf("commit after the leader switch answered %v, want Aborted", rep.Status)
	}
	if _, found := c.get("k"); found {
		t.Fatal("the aborted transaction's write leaked across the leader switch")
	}
}

func TestTxnOpAfterLeaderSwitchAborts(t *testing.T) {
	s, c := kvSim(t, 67)
	tx := c.begin()
	mustOK(t, "op", tx.do(service.KVPut("k", []byte("1"))))
	old, _ := s.leader()
	s.crash(old)
	if rep := tx.do(service.KVPut("k2", []byte("2"))); rep.Status != wire.StatusAborted {
		t.Fatalf("txn op after the switch answered %v, want Aborted", rep.Status)
	}
}

// TestTxnCommitSingleConsensusInstance: a whole transaction occupies one
// log instance, whatever its op count (§3.5).
func TestTxnCommitSingleConsensusInstance(t *testing.T) {
	s, c := kvSim(t, 68)
	lead, _ := s.leader()
	before := s.nodes[lead].r.Chosen()
	tx := c.begin()
	for i := 0; i < 5; i++ {
		mustOK(t, "op", tx.do(service.KVPut(fmt.Sprint("k", i), []byte("v"))))
	}
	mustOK(t, "commit", tx.commit())
	if after := s.nodes[lead].r.Chosen(); after != before+1 {
		t.Fatalf("commit index advanced by %d, want 1 (one instance per txn)", after-before)
	}
}

// TestTxnOpsDoNotCoordinate is T-Paxos's point: operations inside a
// transaction send no accept and take no instance, and an abort leaves
// the log as it was.
func TestTxnOpsDoNotCoordinate(t *testing.T) {
	s, c := kvSim(t, 69)
	lead, _ := s.leader()
	before, accepts := s.nodes[lead].r.Chosen(), s.msgs[wire.MsgAccept]
	tx := c.begin()
	for i := 0; i < 4; i++ {
		mustOK(t, "op", tx.do(service.KVPut(fmt.Sprint("k", i), []byte("v"))))
	}
	if n := s.msgs[wire.MsgAccept] - accepts; n != 0 {
		t.Fatalf("%d accepts sent during an open transaction", n)
	}
	mustOK(t, "abort", tx.abort())
	if after := s.nodes[lead].r.Chosen(); after != before {
		t.Fatalf("the aborted transaction consumed log instances (%d -> %d)", before, after)
	}
}

// TestTxnNoopConcurrent: the benchmark's noop service admits fully
// concurrent transactions, and every committed op counts.
func TestTxnNoopConcurrent(t *testing.T) {
	s := newSim(t, simConfig{seed: 70, service: noop})
	s.awaitLeader(time.Second)
	const clients, txns = 6, 10
	s.concurrently(clients, func(i int) []wire.Request {
		var reqs []wire.Request
		for id := uint64(1); id <= txns; id++ {
			for k := 0; k < 3; k++ {
				reqs = append(reqs, wire.Request{Kind: wire.KindTxnOp, Txn: id, TxnSeq: uint32(k), Op: service.NoopWriteOp})
			}
			reqs = append(reqs, wire.Request{Kind: wire.KindTxnCommit, Txn: id, TxnSeq: 3})
		}
		return reqs
	}, func(int, int, wire.Reply) {})
	s.mustConverge()
	for _, n := range s.nodes {
		if v, want := n.r.Service().(*service.Noop).Version(), uint64(clients*txns*3); v != want {
			t.Fatalf("replica %d: noop version = %d, want %d", n.id, v, want)
		}
	}
}

// TestExclusiveTxnSerialization: the broker is not natively
// transactional, so the replica admits one transaction at a time and
// parks everything else behind it — here a plain write, which must
// neither be lost nor interleave.
func TestExclusiveTxnSerialization(t *testing.T) {
	s := newSim(t, simConfig{seed: 71, service: brokers(101)})
	s.awaitLeader(time.Second)
	c1, c2 := s.newClient(), s.newClient()
	c1.must(wire.KindWrite, service.BrokerRegister("n1", 10))
	tx := c1.begin()
	mustOK(t, "op", tx.do(service.BrokerRequest(1)))
	var parked *wire.Reply
	c2.do(wire.Request{Kind: wire.KindWrite, Op: service.BrokerRegister("n2", 5)}, func(rep wire.Reply) { parked = &rep })
	s.runFor(time.Second)
	if parked != nil {
		t.Fatalf("write answered %v during the exclusive transaction", parked.Status)
	}
	mustOK(t, "commit", tx.commit())
	if !s.runUntil(opLimit, func() bool { return parked != nil }) || parked.Status != wire.StatusOK {
		t.Fatalf("parked write: %+v", parked)
	}
	if list := c1.must(wire.KindRead, service.BrokerList()); string(list) != "n1 1/10\nn2 0/5\n" {
		t.Fatalf("final broker state:\n%s", list)
	}
}

// TestExclusiveTxnAbortRollsBack: on every service that is not natively
// transactional the aborted op ran on the leader's live state; the abort
// re-derives it, so the leader reads exactly the committed state and the
// replicas converge. The expected read comes from a fresh instance that
// ran the committed write alone.
func TestExclusiveTxnAbortRollsBack(t *testing.T) {
	for _, row := range []struct {
		name              string
		svc               func(wire.NodeID, int) service.Service
		write, op, status []byte
	}{
		{"broker", brokers(201), service.BrokerRegister("n1", 10), service.BrokerRequest(3), service.BrokerList()},
		{"sched", func(wire.NodeID, int) service.Service { return service.NewSched() },
			service.SchedSubmit("j1", 1), service.SchedSubmit("jT", 9), service.SchedStatus()},
		{"plainKV", plainKV, service.KVPut("a", []byte("committed")), service.KVPut("a", []byte("aborted")), service.KVGet("a")},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := newSim(t, simConfig{seed: 72, service: row.svc})
			s.awaitLeader(time.Second)
			c := s.newClient()
			c.must(wire.KindWrite, row.write)
			tx := c.begin()
			mustOK(t, "op", tx.do(row.op))
			mustOK(t, "abort", tx.abort())
			fresh := row.svc(0, 0)
			fresh.Execute(row.write)
			want, _ := fresh.Execute(row.status)
			if got := c.must(wire.KindRead, row.status); string(got) != string(want) {
				t.Fatalf("leader read after the exclusive abort %q, want %q", got, want)
			}
			s.mustConverge()
		})
	}
}

// TestTxnAbortWhileCommitting: a client sends a transaction's commit,
// queued behind a wave whose accepts are held back, and then an abort.
// The abort must change nothing: it is refused, the commit lands, its
// effect is readable on the leader and the replicas converge. Undoing
// the transaction there leaves the leader behind its backups on a
// serialized service, and commits a write set whose locks were already
// released on the KV.
func TestTxnAbortWhileCommitting(t *testing.T) {
	for _, row := range []struct {
		name              string
		svc               func(wire.NodeID, int) service.Service
		write, op, status []byte
	}{
		{"sched", func(wire.NodeID, int) service.Service { return service.NewSched() },
			service.SchedSubmit("j1", 1), service.SchedSubmit("jT", 9), service.SchedStatus()},
		{"kv", func(wire.NodeID, int) service.Service { return service.NewKV() }, service.KVPut("w", []byte("1")), service.KVPut("t", []byte("committed")), service.KVGet("t")},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := newSim(t, simConfig{seed: 75, service: row.svc})
			lead := s.awaitLeader(time.Second)
			writer, c := s.newClient(), s.newClient()
			release := s.holdAccepted()
			writer.do(wire.Request{Kind: wire.KindWrite, Op: row.write}, func(wire.Reply) {})
			s.runFor(5 * time.Millisecond)
			tx := c.begin()
			mustOK(t, "op", tx.do(row.op))
			if s.nodes[lead].r.wave == nil {
				t.Fatal("the write's wave is no longer in flight")
			}
			replies := make(map[uint64]wire.Reply)
			c.raw = func(rep wire.Reply) { replies[rep.Seq] = rep }
			commit := wire.Request{Client: c.id, Seq: c.seq + 1, Kind: wire.KindTxnCommit, Txn: tx.id, TxnSeq: tx.ops}
			abort := wire.Request{Client: c.id, Seq: c.seq + 2, Kind: wire.KindTxnAbort, Txn: tx.id, TxnSeq: tx.ops}
			c.seq += 2
			c.sendTo(commit, lead)
			c.sendTo(abort, lead)
			s.runFor(5 * time.Millisecond)
			release()
			if !s.runUntil(opLimit, func() bool { _, ok := replies[commit.Seq]; return ok }) {
				t.Fatal("the commit was never answered")
			}
			c.raw = nil
			mustOK(t, "commit", replies[commit.Seq])
			s.mustConverge()
			fresh := row.svc(0, 0)
			fresh.Execute(row.write)
			fresh.Execute(row.op)
			want, _ := fresh.Execute(row.status)
			if got := c.must(wire.KindRead, row.status); string(got) != string(want) {
				t.Fatalf("leader read %q after the commit, want %q", got, want)
			}
			if rep := replies[abort.Seq]; rep.Status != wire.StatusError {
				t.Fatalf("the abort of a committing transaction was answered %v, and its commit landed", rep.Status)
			}
		})
	}
}

// countingSched is a scheduler that counts its Snapshot calls.
type countingSched struct {
	*service.Sched
	snapshots *int
}

func (c countingSched) Snapshot() []byte { *c.snapshots++; return c.Sched.Snapshot() }

// TestExclusiveTxnTakesNoSnapshot: an exclusive transaction copies no
// state. Over 20 scheduler transactions, every third aborted, the
// leader's service is asked for no Snapshot beyond its boot.
func TestExclusiveTxnTakesNoSnapshot(t *testing.T) {
	counts := make(map[wire.NodeID]*int)
	s := newSim(t, simConfig{seed: 76, service: func(id wire.NodeID, _ int) service.Service {
		counts[id] = new(int)
		return countingSched{service.NewSched(), counts[id]}
	}})
	lead := s.awaitLeader(time.Second)
	before := *counts[lead]
	c := s.newClient()
	for i := 0; i < 20; i++ {
		tx := c.begin()
		mustOK(t, "op", tx.do(service.SchedSubmit(fmt.Sprint("j", i), int64(i))))
		mustOK(t, "op", tx.do(service.SchedDispatch()))
		if i%3 == 2 {
			mustOK(t, "abort", tx.abort())
		} else {
			mustOK(t, "commit", tx.commit())
		}
	}
	if l, _ := s.leader(); l != lead {
		t.Fatalf("leadership moved from %d to %d", lead, l)
	}
	if n := *counts[lead] - before; n != 0 {
		t.Fatalf("the leader took %d snapshots over 20 transactions", n)
	}
	s.mustConverge()
}

// TestTxnRetransmitIdempotent: a retransmitted transaction op — same
// TxnSeq, here under a fresh request Seq — is answered from the
// transaction's results, not executed again.
func TestTxnRetransmitIdempotent(t *testing.T) {
	s, c := kvSim(t, 73)
	tx := c.begin()
	if n, _ := service.KVInt(mustOK(t, "op", tx.do(service.KVAdd("acct", 10))).Result); n != 10 {
		t.Fatalf("first add = %d", n)
	}
	lead, _ := s.leader()
	s.inject(c.id, lead, &wire.RequestMsg{Req: wire.Request{
		Client: c.id, Seq: 999, Kind: wire.KindTxnOp, Txn: tx.id, TxnSeq: 0, Op: service.KVAdd("acct", 10),
	}})
	s.runFor(50 * time.Millisecond)
	if n, _ := service.KVInt(mustOK(t, "op", tx.do(service.KVAdd("acct", 5))).Result); n != 15 {
		t.Fatalf("balance = %d, want 15 (the duplicate op ran again)", n)
	}
	mustOK(t, "commit", tx.commit())
}

// leaderSwitchSensitivity is DESIGN.md §5's ablation 4, the §3.6 claim
// that T-Paxos is more sensitive to leader switches than the basic
// protocol: six rounds, each opening a transaction, switching the leader
// mid-transaction, trying to commit, then issuing one plain write.
func leaderSwitchSensitivity(t testing.TB) (aborts, commits, writes int) {
	s := newSim(t, simConfig{seed: 74})
	c := s.newClient()
	for round := 0; round < 6; round++ {
		old := s.awaitLeader(time.Second)
		tx := c.begin()
		if rep := tx.do(service.KVAdd("x", 1)); rep.Status != wire.StatusOK {
			t.Fatalf("round %d: txn op answered %v", round, rep.Status)
		}
		s.suspect(old)
		if !s.runUntil(time.Second, func() bool { l, ok := s.leader(); return ok && l != old }) {
			t.Fatalf("round %d: no switch away from %d", round, old)
		}
		switch rep := tx.commit(); rep.Status {
		case wire.StatusAborted:
			aborts++
		case wire.StatusOK:
			commits++
		default:
			t.Fatalf("round %d: commit answered %v", round, rep.Status)
		}
		if rep := c.call(kvAdd("y"), opLimit); rep.Status == wire.StatusOK {
			writes++
		}
	}
	if x, y := c.counter("x"), c.counter("y"); x != int64(commits) || y != int64(writes) {
		t.Fatalf("x = %d, y = %d after %d commits and %d writes", x, y, commits, writes)
	}
	return aborts, commits, writes
}

// TestLeaderSwitchSensitivity: every one of the six mid-transaction
// leader switches aborts the open transaction, and every plain write
// across the same switches succeeds.
func TestLeaderSwitchSensitivity(t *testing.T) {
	if aborts, commits, writes := leaderSwitchSensitivity(t); aborts != 6 || commits != 0 || writes != 6 {
		t.Fatalf("%d aborted, %d committed, %d of 6 writes succeeded; want 6, 0, 6", aborts, commits, writes)
	}
}
