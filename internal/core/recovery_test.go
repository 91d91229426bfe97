package core

import (
	"bytes"
	"testing"
	"time"

	"gridrep/internal/paxos"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

// Leader recovery (§3.3) from fabricated logs: each test seeds the three
// stores with what a crashed leader left behind, boots the cluster on
// them in full mode — which the seeded entries are in — with replica 0,
// which Ω entitles, as the new leader.

// kvState builds a KV service, applies ops, and returns its snapshot and
// the replies.
func kvState(ops ...[]byte) ([]byte, [][]byte) {
	kv := service.NewKV()
	var results [][]byte
	for _, op := range ops {
		res, err := kv.Execute(op)
		if err != nil {
			panic(err)
		}
		results = append(results, res)
	}
	return kv.Snapshot(), results
}

// seedStore writes entries and chosen into a fresh Mem store.
func seedStore(t *testing.T, entries []wire.Entry, chosen uint64) *storage.Mem {
	t.Helper()
	st := storage.NewMem()
	if len(entries) > 0 {
		var maxBal wire.Ballot
		for _, e := range entries {
			if maxBal.Less(e.Bal) {
				maxBal = e.Bal
			}
		}
		if err := st.PutAccepted(entries, maxBal); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SetChosen(chosen); err != nil {
		t.Fatal(err)
	}
	return st
}

func fullEntry(inst uint64, bal wire.Ballot, req wire.Request, result, state []byte) wire.Entry {
	return wire.Entry{
		Instance: inst,
		Bal:      bal,
		Prop: wire.Proposal{
			Reqs:     []wire.Request{req},
			Results:  [][]byte{result},
			State:    state,
			HasState: true,
			Kind:     wire.StateFull,
		},
	}
}

// recoverySim boots a full-mode KV cluster on the seeded stores and
// requires replica 0 to lead.
func recoverySim(t *testing.T, stores ...*storage.Mem) (*sim, *simClient) {
	t.Helper()
	s := newSim(t, simConfig{seed: 51, service: plainKV})
	for i, st := range stores {
		s.reseed(wire.NodeID(i), st)
	}
	if lead := s.awaitLeader(time.Second); lead != 0 {
		t.Fatalf("replica %d leads, want 0", lead)
	}
	return s, s.newClient()
}

// TestRecoveryAdoptsUncommittedSuffix is the §3.3 crash: the old leader
// got instance 3 accepted at the backups but crashed before committing.
// The new leader's prepare must learn it and re-propose it, and the
// client's retransmission of that very request must be answered from the
// rebuilt reply cache with the original result — not executed again:
// nondeterminism is captured once, even across leader changes.
func TestRecoveryAdoptsUncommittedSuffix(t *testing.T) {
	oldBal := wire.Ballot{Round: 1, Node: 9}
	ghost := wire.ClientIDBase + 77

	// Committed prefix: two puts, chosen=2.
	snap2, res12 := kvState(service.KVPut("a", []byte("1")), service.KVPut("b", []byte("2")))
	e1 := fullEntry(1, oldBal, wire.Request{Client: ghost, Seq: 1, Kind: wire.KindWrite,
		Op: service.KVPut("a", []byte("1"))}, res12[0], nil)
	e1.Prop.HasState = false
	e2 := fullEntry(2, oldBal, wire.Request{Client: ghost, Seq: 2, Kind: wire.KindWrite,
		Op: service.KVPut("b", []byte("2"))}, res12[1], snap2)

	// The uncommitted suffix, instance 3, at both backups, so that every
	// prepare quorum includes a holder: held by one replica only, a
	// quorum missing it could legally discard the unchosen proposal.
	snap3, res3 := kvState(service.KVPut("a", []byte("1")), service.KVPut("b", []byte("2")),
		service.KVPut("c", []byte("3")))
	req3 := wire.Request{Client: ghost, Seq: 3, Kind: wire.KindWrite, Op: service.KVPut("c", []byte("3"))}
	e3 := fullEntry(3, oldBal, req3, res3[2], snap3)

	s, c := recoverySim(t, seedStore(t, []wire.Entry{e1, e2}, 2),
		seedStore(t, []wire.Entry{e1, e2, e3}, 2), seedStore(t, []wire.Entry{e1, e2, e3}, 2))
	if v, ok := c.get("c"); !ok || v != "3" {
		t.Fatalf("recovered suffix not applied: c = %q,%v", v, ok)
	}

	g := s.clientAs(ghost)
	g.seq, g.req = req3.Seq, req3
	rep := g.again(time.Second)
	if rep.Status != wire.StatusOK || !bytes.Equal(rep.Result, res3[2]) {
		t.Fatalf("retransmitted request answered %v %x, want the original result %x", rep.Status, rep.Result, res3[2])
	}
	if chosen := s.nodes[0].r.Chosen(); chosen != 3 {
		t.Fatalf("chosen = %d after the retransmit, want 3: the request ran again", chosen)
	}
	s.mustConverge()
}

// TestRecoveryDiscardsSuffixPastGap seeds a log where only instance 4
// has an accepted proposal (a speculative wave whose predecessors never
// reached this quorum): the new leader must discard it — an entry past a
// gap cannot be committed, because committed instances advance gap-free
// and a prepare quorum intersects every commit's accept quorum — and
// restart the log at instance 1.
func TestRecoveryDiscardsSuffixPastGap(t *testing.T) {
	oldBal := wire.Ballot{Round: 1, Node: 9}
	snap4, res4 := kvState(service.KVPut("x", []byte("4")))
	req4 := wire.Request{Client: wire.ClientIDBase + 50, Seq: 1, Kind: wire.KindWrite, Op: service.KVPut("x", []byte("4"))}
	e4 := fullEntry(4, oldBal, req4, res4[0], snap4)

	// At both backups, so that every prepare quorum observes it — and
	// must still discard it.
	s, c := recoverySim(t, seedStore(t, nil, 0), seedStore(t, []wire.Entry{e4}, 0), seedStore(t, []wire.Entry{e4}, 0))
	if _, found := c.get("x"); found {
		t.Fatal("x survived recovery; the suffix past the gap must be discarded")
	}
	// The next write lands at instance 1: the discarded entry leaves no
	// trace in the log.
	c.must(wire.KindWrite, service.KVPut("y", []byte("5")))
	r := s.nodes[0].r
	if chosen := r.Chosen(); chosen != 1 {
		t.Fatalf("chosen = %d, want 1 (instance 4 discarded, new write is first)", chosen)
	}
	if n := r.stats.recoveryDiscarded.Load(); n == 0 {
		t.Fatal("no discarded instance counted")
	}
	s.mustConverge()
}

// TestRecoveryDiscardsBallotRegression seeds a committed prefix decided
// at a high ballot with a stale lower-ballot straggler right after it: a
// leftover speculative wave from a deposed leader whose slot was never
// redefined. Committed ballots are non-decreasing in instance order, so
// the lower-ballot suffix cannot be committed and must be discarded
// rather than grafted onto state it never followed.
func TestRecoveryDiscardsBallotRegression(t *testing.T) {
	balOld := wire.Ballot{Round: 1, Node: 8}
	balNew := wire.Ballot{Round: 2, Node: 9}
	ghost := wire.ClientIDBase + 70

	// Instance 1 committed at the newer ballot (chosen=1 everywhere).
	snap1, res1 := kvState(service.KVPut("a", []byte("1")))
	e1 := fullEntry(1, balNew, wire.Request{Client: ghost, Seq: 1, Kind: wire.KindWrite,
		Op: service.KVPut("a", []byte("1"))}, res1[0], snap1)

	// Instance 2 accepted only under the older, deposed ballot.
	snap2, res2 := kvState(service.KVPut("a", []byte("1")), service.KVPut("k", []byte("stale")))
	e2 := fullEntry(2, balOld, wire.Request{Client: ghost, Seq: 2, Kind: wire.KindWrite,
		Op: service.KVPut("k", []byte("stale"))}, res2[1], snap2)

	s, c := recoverySim(t, seedStore(t, []wire.Entry{e1}, 1),
		seedStore(t, []wire.Entry{e1, e2}, 1), seedStore(t, []wire.Entry{e1, e2}, 1))
	if _, found := c.get("k"); found {
		t.Fatal("stale lower-ballot suffix survived recovery")
	}
	if v, _ := c.get("a"); v != "1" {
		t.Fatalf("a = %q; the committed prefix must survive", v)
	}
	s.mustConverge()
}

// TestHigherBallotSuffixWins seeds two competing uncommitted proposals
// for instance 2 — an older-ballot value at the future leader itself and
// a newer-ballot value at both backups, so that every prepare quorum
// observes both and the ballot order decides. Paxos requires the new
// leader to adopt the higher-ballot one.
func TestHigherBallotSuffixWins(t *testing.T) {
	balOld := wire.Ballot{Round: 1, Node: 8}
	balNew := wire.Ballot{Round: 2, Node: 9}
	ghost := wire.ClientIDBase + 60

	snapPrefix, resPrefix := kvState(service.KVPut("a", []byte("1")))
	e1 := fullEntry(1, balOld, wire.Request{Client: ghost, Seq: 1, Kind: wire.KindWrite,
		Op: service.KVPut("a", []byte("1"))}, resPrefix[0], snapPrefix)
	mk := func(val string, bal wire.Ballot) wire.Entry {
		snap, res := kvState(service.KVPut("a", []byte("1")), service.KVPut("k", []byte(val)))
		return fullEntry(2, bal, wire.Request{Client: ghost, Seq: 2, Kind: wire.KindWrite,
			Op: service.KVPut("k", []byte(val))}, res[1], snap)
	}
	loser, winner := mk("old-value", balOld), mk("new-value", balNew)

	s, c := recoverySim(t, seedStore(t, []wire.Entry{e1, loser}, 1),
		seedStore(t, []wire.Entry{e1, winner}, 1), seedStore(t, []wire.Entry{e1, winner}, 1))
	if v, _ := c.get("k"); v != "new-value" {
		t.Fatalf("k = %q; the higher-ballot proposal must win", v)
	}
	s.mustConverge()
}

// TestRejectedPrepareLearnsTheBallot: a replica whose prepare a voter
// rejects — it had promised a higher ballot — stands down, backs off one
// RetryTimeout, and remembers the blocking ballot, so that its next
// prepare outbids it.
func TestRejectedPrepareLearnsTheBallot(t *testing.T) {
	r, _ := bareReplica(t)
	r.cfg.RetryTimeout = 50 * time.Millisecond
	r.now = simEpoch
	r.bal = wire.Ballot{Round: 1, Node: 1}
	r.role, r.prep = RolePreparing, paxos.NewPrepareRound(r.bal, 2)
	higher := wire.Ballot{Round: 4, Node: 2}
	r.onPromise(2, &wire.Promise{Bal: r.bal, From: 2, MaxProm: higher})
	if r.role != RoleBackup || r.prep != nil {
		t.Fatalf("role %v after a rejected prepare, want backup", r.role)
	}
	if r.maxSeen != higher || !r.prepBackoff.Equal(simEpoch.Add(50*time.Millisecond)) {
		t.Fatalf("learned %v, backing off to %v; want %v and one RetryTimeout", r.maxSeen, r.prepBackoff.Sub(simEpoch), higher)
	}
}
