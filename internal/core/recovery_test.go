package core_test

import (
	"bytes"
	"testing"
	"time"

	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

// kvState builds a KV service, applies ops, and returns (snapshot,
// replies) — used to fabricate stores that look like the remains of a
// crashed leader's log.
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

// seedStore writes entries/chosen into a fresh Mem store.
func seedStore(t *testing.T, entries []wire.Entry, chosen uint64) storage.Store {
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

// TestRecoveryAdoptsUncommittedSuffix fabricates the §3.3 crash scenario:
// the old leader got instance 3 accepted at one backup but crashed before
// committing. The new leader's prepare must learn it, re-propose it, and
// the client's retransmission of that very request must be answered from
// the rebuilt reply cache — not re-executed (nondeterminism is captured
// once, even across leader changes).
func TestRecoveryAdoptsUncommittedSuffix(t *testing.T) {
	oldBal := wire.Ballot{Round: 1, Node: 9}
	ghostClient := wire.ClientIDBase + 77

	// Committed prefix: two puts, chosen=2.
	snap2, res12 := kvState(service.KVPut("a", []byte("1")), service.KVPut("b", []byte("2")))
	e1 := fullEntry(1, oldBal, wire.Request{Client: ghostClient, Seq: 1, Kind: wire.KindWrite,
		Op: service.KVPut("a", []byte("1"))}, res12[0], nil)
	e1.Prop.HasState = false
	e2 := fullEntry(2, oldBal, wire.Request{Client: ghostClient, Seq: 2, Kind: wire.KindWrite,
		Op: service.KVPut("b", []byte("2"))}, res12[1], snap2)

	// Uncommitted suffix at replica 1 only: instance 3.
	snap3, res3 := kvState(service.KVPut("a", []byte("1")), service.KVPut("b", []byte("2")),
		service.KVPut("c", []byte("3")))
	req3 := wire.Request{Client: ghostClient, Seq: 3, Kind: wire.KindWrite,
		Op: service.KVPut("c", []byte("3"))}
	e3 := fullEntry(3, oldBal, req3, res3[2], snap3)

	// The suffix lives at both backups so every prepare quorum includes
	// a holder — if only one replica held it, a quorum missing it could
	// legally discard the (unchosen) proposal.
	stores := map[wire.NodeID]storage.Store{
		0: seedStore(t, []wire.Entry{e1, e2}, 2),
		1: seedStore(t, []wire.Entry{e1, e2, e3}, 2),
		2: seedStore(t, []wire.Entry{e1, e2, e3}, 2),
	}
	c := newCluster(t, cluster.Config{
		Service: service.KVFactory,
		Stores:  stores,
		Options: core.Options{StateMode: core.StateModeFull},
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// The re-proposed suffix must be visible to reads.
	res, err := cli.Read(service.KVGet("c"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := service.KVReply(res); !ok || string(v) != "3" {
		t.Fatalf("recovered suffix not applied: c = %q,%v", v, ok)
	}

	// Retransmit the ghost client's request 3 raw; the new leader must
	// answer from its rebuilt reply cache with the original result.
	leaderID, _ := c.Leader()
	ep, err := c.Net.Endpoint(ghostClient)
	if err != nil {
		t.Fatal(err)
	}
	ep.Send(&wire.Envelope{To: leaderID, Msg: &wire.RequestMsg{Req: req3}})
	select {
	case env := <-ep.Recv():
		rep := env.Msg.(*wire.ReplyMsg).Rep
		if rep.Seq != 3 || rep.Status != wire.StatusOK {
			t.Fatalf("cached reply = %+v", rep)
		}
		if !bytes.Equal(rep.Result, res3[2]) {
			t.Fatalf("cached result %x differs from original %x", rep.Result, res3[2])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no cached reply for the retransmitted request")
	}

	// And the suffix must not have been double-executed: exactly chosen=3
	// plus nothing extra before the read... verify via counter semantics.
	waitConverged(t, c)
	snaps := snapshotAll(t, c)
	for i, s := range snaps {
		if !bytes.Equal(s, snaps[0]) {
			t.Fatalf("replica #%d diverged after recovery", i)
		}
	}
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
	req4 := wire.Request{Client: wire.ClientIDBase + 50, Seq: 1, Kind: wire.KindWrite,
		Op: service.KVPut("x", []byte("4"))}
	e4 := fullEntry(4, oldBal, req4, res4[0], snap4)

	// Seeded at both backups so every prepare quorum observes it — and
	// must still discard it.
	stores := map[wire.NodeID]storage.Store{
		0: seedStore(t, nil, 0),
		1: seedStore(t, []wire.Entry{e4}, 0),
		2: seedStore(t, []wire.Entry{e4}, 0),
	}
	c := newCluster(t, cluster.Config{
		Service: service.KVFactory,
		Stores:  stores,
		Options: core.Options{StateMode: core.StateModeFull},
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	res, err := cli.Read(service.KVGet("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, found := service.KVReply(res); found {
		t.Fatal("x survived recovery; the suffix past the gap must be discarded")
	}
	// The next write must land at instance 1: the discarded entry leaves
	// no trace in the log.
	if _, err := cli.Write(service.KVPut("y", []byte("5"))); err != nil {
		t.Fatal(err)
	}
	leaderID, _ := c.Leader()
	rep, _ := c.Replica(leaderID)
	var chosen uint64
	rep.Inspect(func(r *core.Replica) { chosen = r.Chosen() })
	discarded := rep.Metrics().Value("gridrep_recovery_discarded_total")
	if chosen != 1 {
		t.Fatalf("chosen = %d, want 1 (instance 4 discarded, new write is first)", chosen)
	}
	if discarded == 0 {
		t.Fatal("RecoveryDiscarded = 0, want the discarded instance counted")
	}
	waitConverged(t, c)
	snaps := snapshotAll(t, c)
	for i, s := range snaps {
		if !bytes.Equal(s, snaps[0]) {
			t.Fatalf("replica #%d diverged (gap discard)", i)
		}
	}
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

	stores := map[wire.NodeID]storage.Store{
		0: seedStore(t, []wire.Entry{e1}, 1),
		1: seedStore(t, []wire.Entry{e1, e2}, 1),
		2: seedStore(t, []wire.Entry{e1, e2}, 1),
	}
	c := newCluster(t, cluster.Config{
		Service: service.KVFactory,
		Stores:  stores,
		Options: core.Options{StateMode: core.StateModeFull},
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	res, err := cli.Read(service.KVGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, found := service.KVReply(res); found {
		t.Fatal("stale lower-ballot suffix survived recovery")
	}
	res, err = cli.Read(service.KVGet("a"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := service.KVReply(res); string(v) != "1" {
		t.Fatalf("a = %q; the committed prefix must survive", v)
	}
	waitConverged(t, c)
	snaps := snapshotAll(t, c)
	for i, s := range snaps {
		if !bytes.Equal(s, snaps[0]) {
			t.Fatalf("replica #%d diverged (ballot-regression discard)", i)
		}
	}
}

// TestHigherBallotSuffixWins seeds two competing uncommitted proposals
// for instance 3 — an older-ballot value at replica 1 and a newer-ballot
// value at replica 2. Paxos requires the new leader to adopt the
// higher-ballot one.
func TestHigherBallotSuffixWins(t *testing.T) {
	balOld := wire.Ballot{Round: 1, Node: 8}
	balNew := wire.Ballot{Round: 2, Node: 9}
	ghost := wire.ClientIDBase + 60

	snapPrefix, resPrefix := kvState(service.KVPut("a", []byte("1")))
	e1 := fullEntry(1, balOld, wire.Request{Client: ghost, Seq: 1, Kind: wire.KindWrite,
		Op: service.KVPut("a", []byte("1"))}, resPrefix[0], snapPrefix)

	mk := func(val string, bal wire.Ballot, seq uint64) wire.Entry {
		snap, res := kvState(service.KVPut("a", []byte("1")), service.KVPut("k", []byte(val)))
		return fullEntry(2, bal, wire.Request{Client: ghost, Seq: seq, Kind: wire.KindWrite,
			Op: service.KVPut("k", []byte(val))}, res[1], snap)
	}
	loser := mk("old-value", balOld, 2)
	winner := mk("new-value", balNew, 2)

	// The loser sits at the future leader itself and the winner at both
	// backups, so every prepare quorum observes both proposals and the
	// ballot order decides. (A value held by a single replica is not
	// chosen, and Paxos would legitimately allow either outcome if the
	// quorum missed it.)
	stores := map[wire.NodeID]storage.Store{
		0: seedStore(t, []wire.Entry{e1, loser}, 1),
		1: seedStore(t, []wire.Entry{e1, winner}, 1),
		2: seedStore(t, []wire.Entry{e1, winner}, 1),
	}
	c := newCluster(t, cluster.Config{
		Service: service.KVFactory,
		Stores:  stores,
		Options: core.Options{StateMode: core.StateModeFull},
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	res, err := cli.Read(service.KVGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := service.KVReply(res); string(v) != "new-value" {
		t.Fatalf("k = %q; the higher-ballot proposal must win", v)
	}
}
