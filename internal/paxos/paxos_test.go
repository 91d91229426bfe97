package paxos

import (
	"testing"
	"testing/quick"

	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

func newAcc(t *testing.T) *Acceptor {
	t.Helper()
	a, err := NewAcceptor(storage.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func bal(round uint64, node wire.NodeID) wire.Ballot { return wire.Ballot{Round: round, Node: node} }

func ent(inst uint64, op string, withState bool) wire.Entry {
	e := wire.Entry{
		Instance: inst,
		Prop: wire.Proposal{
			Reqs:    []wire.Request{{Client: wire.ClientIDBase, Seq: inst, Kind: wire.KindWrite, Op: []byte(op)}},
			Results: [][]byte{[]byte("ok")},
		},
	}
	if withState {
		e.Prop.HasState = true
		e.Prop.State = []byte("s" + op)
	}
	return e
}

func TestNextBallot(t *testing.T) {
	if b := NextBallot(wire.Ballot{}, 2); !b.Equal(bal(0, 2)) {
		t.Errorf("NextBallot(zero, 2) = %v, want (0.2)", b)
	}
	if b := NextBallot(bal(0, 2), 1); !b.Equal(bal(1, 1)) {
		t.Errorf("NextBallot((0.2), 1) = %v, want (1.1)", b)
	}
	if b := NextBallot(bal(3, 1), 2); !b.Equal(bal(3, 2)) {
		t.Errorf("NextBallot((3.1), 2) = %v, want (3.2)", b)
	}
	f := func(round uint64, node, self uint32) bool {
		cur := wire.Ballot{Round: round % (1 << 60), Node: wire.NodeID(node)}
		next := NextBallot(cur, wire.NodeID(self))
		return cur.Less(next) && next.Node == wire.NodeID(self)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuorum(t *testing.T) {
	for n, want := range map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 7: 4} {
		if got := Quorum(n); got != want {
			t.Errorf("Quorum(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestAcceptorPromise(t *testing.T) {
	a := newAcc(t)
	p, err := a.OnPrepare(&wire.Prepare{Bal: bal(1, 0)})
	if err != nil || !p.OK {
		t.Fatalf("first prepare rejected: %+v err=%v", p, err)
	}
	// Lower ballot must be rejected with the blocking promise.
	p2, _ := a.OnPrepare(&wire.Prepare{Bal: bal(0, 5)})
	if p2.OK || !p2.MaxProm.Equal(bal(1, 0)) {
		t.Fatalf("lower prepare accepted: %+v", p2)
	}
	// Re-prepare at the same ballot is idempotent.
	p3, _ := a.OnPrepare(&wire.Prepare{Bal: bal(1, 0)})
	if !p3.OK {
		t.Fatalf("same-ballot re-prepare rejected: %+v", p3)
	}
}

func TestAcceptorAcceptBelowPromiseRejected(t *testing.T) {
	a := newAcc(t)
	a.OnPrepare(&wire.Prepare{Bal: bal(5, 1)})
	acc, _ := a.OnAccept(&wire.Accept{Bal: bal(4, 0), Entries: []wire.Entry{ent(1, "x", true)}})
	if acc.OK || !acc.MaxProm.Equal(bal(5, 1)) {
		t.Fatalf("accept below promise not rejected: %+v", acc)
	}
	if _, ok := a.Get(1); ok {
		t.Fatal("rejected proposal must not be stored")
	}
}

func TestAcceptImpliesPromise(t *testing.T) {
	a := newAcc(t)
	acc, _ := a.OnAccept(&wire.Accept{Bal: bal(3, 1), Entries: []wire.Entry{ent(1, "x", true)}})
	if !acc.OK {
		t.Fatalf("accept rejected: %+v", acc)
	}
	if !a.Promised().Equal(bal(3, 1)) {
		t.Fatalf("accept must imply promise; promised=%v", a.Promised())
	}
	// A prepare below the implied promise must now fail.
	p, _ := a.OnPrepare(&wire.Prepare{Bal: bal(2, 2)})
	if p.OK {
		t.Fatal("prepare below implied promise succeeded")
	}
}

func TestAcceptStampsBallot(t *testing.T) {
	a := newAcc(t)
	a.OnAccept(&wire.Accept{Bal: bal(2, 0), Entries: []wire.Entry{ent(7, "x", true)}})
	e, ok := a.Get(7)
	if !ok || !e.Bal.Equal(bal(2, 0)) {
		t.Fatalf("stored entry ballot = %+v", e)
	}
	if !a.MaxAccepted().Equal(bal(2, 0)) {
		t.Fatalf("MaxAccepted = %v", a.MaxAccepted())
	}
}

func TestAcceptorHigherBallotOverwrites(t *testing.T) {
	a := newAcc(t)
	a.OnAccept(&wire.Accept{Bal: bal(1, 0), Entries: []wire.Entry{ent(1, "old", true)}})
	a.OnAccept(&wire.Accept{Bal: bal(2, 1), Entries: []wire.Entry{ent(1, "new", true)}})
	e, _ := a.Get(1)
	if string(e.Prop.Reqs[0].Op) != "new" || !e.Bal.Equal(bal(2, 1)) {
		t.Fatalf("higher ballot did not overwrite: %+v", e)
	}
}

func TestPromiseEntriesStateOnlyOnTop(t *testing.T) {
	a := newAcc(t)
	// Three accept waves; each wave's top has state.
	a.OnAccept(&wire.Accept{Bal: bal(1, 0), Entries: []wire.Entry{ent(1, "a", true)}})
	a.OnAccept(&wire.Accept{Bal: bal(1, 0), Entries: []wire.Entry{ent(2, "b", true)}})
	a.OnAccept(&wire.Accept{Bal: bal(1, 0), Entries: []wire.Entry{ent(3, "c", true)}})
	p, _ := a.OnPrepare(&wire.Prepare{Bal: bal(2, 1), After: 0})
	if len(p.Entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(p.Entries))
	}
	for i, e := range p.Entries {
		wantState := i == len(p.Entries)-1
		if e.Prop.HasState != wantState {
			t.Errorf("entry %d HasState = %v, want %v (§3.3 latest-state rule)",
				e.Instance, e.Prop.HasState, wantState)
		}
	}
}

func TestPromiseEntriesGapsAndAfter(t *testing.T) {
	a := newAcc(t)
	for _, inst := range []uint64{88, 89, 91, 92} {
		a.OnAccept(&wire.Accept{Bal: bal(1, 0), Entries: []wire.Entry{ent(inst, "x", true)}})
	}
	// The paper's recovery example: leader knows 1-87 and 90; prepares
	// gaps {88,89} plus everything above 90.
	p, _ := a.OnPrepare(&wire.Prepare{Bal: bal(2, 1), After: 90, Gaps: []uint64{88, 89}})
	got := map[uint64]bool{}
	for _, e := range p.Entries {
		got[e.Instance] = true
	}
	for _, want := range []uint64{88, 89, 91, 92} {
		if !got[want] {
			t.Errorf("instance %d missing from promise", want)
		}
	}
	if len(got) != 4 {
		t.Errorf("unexpected extra entries: %v", got)
	}
}

func TestMarkChosenAndCompact(t *testing.T) {
	a := newAcc(t)
	for _, inst := range []uint64{1, 2, 3} {
		a.OnAccept(&wire.Accept{Bal: bal(1, 0), Entries: []wire.Entry{ent(inst, "x", true)}})
	}
	if err := a.MarkChosen(3); err != nil {
		t.Fatal(err)
	}
	if a.Chosen() != 3 {
		t.Fatalf("Chosen = %d", a.Chosen())
	}
	a.MarkChosen(2) // regression must be ignored
	if a.Chosen() != 3 {
		t.Fatal("chosen regressed")
	}
	if err := a.Compact(3); err != nil {
		t.Fatal(err)
	}
	for inst := uint64(1); inst <= 2; inst++ {
		e, _ := a.Get(inst)
		if e.Prop.HasState {
			t.Errorf("instance %d kept state after compact", inst)
		}
		if len(e.Prop.Reqs) == 0 {
			t.Errorf("instance %d lost requests after compact", inst)
		}
	}
	if e, _ := a.Get(3); !e.Prop.HasState {
		t.Error("latest instance must keep state")
	}
}

func TestEntriesBetween(t *testing.T) {
	a := newAcc(t)
	for _, inst := range []uint64{5, 6, 7, 8} {
		a.OnAccept(&wire.Accept{Bal: bal(1, 0), Entries: []wire.Entry{ent(inst, "x", true)}})
	}
	es, _ := a.EntriesBetween(5, 7)
	if len(es) != 2 || es[0].Instance != 6 || es[1].Instance != 7 {
		t.Fatalf("EntriesBetween(5,7) = %+v", es)
	}
	if es[0].Prop.HasState || !es[1].Prop.HasState {
		t.Error("state must be attached only to the final entry")
	}
}

func TestMaxInstance(t *testing.T) {
	a := newAcc(t)
	if a.MaxInstance() != 0 {
		t.Fatal("empty acceptor MaxInstance must be 0")
	}
	a.OnAccept(&wire.Accept{Bal: bal(1, 0), Entries: []wire.Entry{ent(4, "x", true), ent(9, "y", true)}})
	if a.MaxInstance() != 9 {
		t.Fatalf("MaxInstance = %d", a.MaxInstance())
	}
}

func TestAcceptorRecoveryFromStore(t *testing.T) {
	st := storage.NewMem()
	a1, _ := NewAcceptor(st)
	a1.OnPrepare(&wire.Prepare{Bal: bal(3, 1)})
	a1.OnAccept(&wire.Accept{Bal: bal(3, 1), Entries: []wire.Entry{ent(1, "x", true)}})
	a1.MarkChosen(1)

	// Crash: rebuild from the same store.
	a2, err := NewAcceptor(st)
	if err != nil {
		t.Fatal(err)
	}
	if !a2.Promised().Equal(bal(3, 1)) || a2.Chosen() != 1 {
		t.Fatalf("recovered state wrong: promised=%v chosen=%d", a2.Promised(), a2.Chosen())
	}
	// Safety: the recovered acceptor must still honor its promise.
	p, _ := a2.OnPrepare(&wire.Prepare{Bal: bal(2, 0)})
	if p.OK {
		t.Fatal("recovered acceptor violated its promise")
	}
}

func TestPrepareRoundQuorum(t *testing.T) {
	r := NewPrepareRound(bal(2, 0), 2)
	done, rej := r.Add(&wire.Promise{Bal: bal(2, 0), OK: true, Chosen: 5}, 1)
	if done || rej {
		t.Fatalf("one promise should not reach quorum of 2")
	}
	// Duplicate from the same node must not count twice.
	done, _ = r.Add(&wire.Promise{Bal: bal(2, 0), OK: true}, 1)
	if done {
		t.Fatal("duplicate promise counted twice")
	}
	done, _ = r.Add(&wire.Promise{Bal: bal(2, 0), OK: true, Chosen: 7}, 2)
	if !done {
		t.Fatal("two promises should reach quorum")
	}
	if r.MaxChosen() != 7 {
		t.Fatalf("MaxChosen = %d", r.MaxChosen())
	}
}

func TestPrepareRoundRejection(t *testing.T) {
	r := NewPrepareRound(bal(2, 0), 2)
	_, rej := r.Add(&wire.Promise{Bal: bal(2, 0), OK: false, MaxProm: bal(9, 1)}, 1)
	if !rej {
		t.Fatal("rejection not detected")
	}
	if !r.MaxPromSeen().Equal(bal(9, 1)) {
		t.Fatalf("MaxPromSeen = %v", r.MaxPromSeen())
	}
	// Later promises cannot resurrect a rejected round.
	done, rej := r.Add(&wire.Promise{Bal: bal(2, 0), OK: true}, 2)
	if done || !rej {
		t.Fatal("rejected round must stay rejected")
	}
}

func TestPrepareRoundIgnoresStaleBallot(t *testing.T) {
	r := NewPrepareRound(bal(2, 0), 1)
	done, _ := r.Add(&wire.Promise{Bal: bal(1, 0), OK: true}, 1)
	if done {
		t.Fatal("stale-ballot promise must be ignored")
	}
}

func TestPrepareRoundHighestBallotWinsPerInstance(t *testing.T) {
	r := NewPrepareRound(bal(5, 0), 2)
	lo := ent(10, "old", true)
	lo.Bal = bal(1, 1)
	hi := ent(10, "new", true)
	hi.Bal = bal(2, 2)
	r.Add(&wire.Promise{Bal: bal(5, 0), OK: true, Entries: []wire.Entry{lo}}, 1)
	r.Add(&wire.Promise{Bal: bal(5, 0), OK: true, Entries: []wire.Entry{hi}}, 2)
	out := r.Outcome(0)
	if len(out) != 1 || string(out[0].Prop.Reqs[0].Op) != "new" {
		t.Fatalf("Outcome = %+v, want the ballot-(2.2) proposal", out)
	}
}

func TestPrepareRoundOutcomeDropsChosen(t *testing.T) {
	r := NewPrepareRound(bal(5, 0), 1)
	e1, e2 := ent(3, "a", false), ent(4, "b", true)
	e1.Bal, e2.Bal = bal(1, 0), bal(1, 0)
	r.Add(&wire.Promise{Bal: bal(5, 0), OK: true, Entries: []wire.Entry{e1, e2}, Chosen: 3}, 1)
	out := r.Outcome(3)
	if len(out) != 1 || out[0].Instance != 4 {
		t.Fatalf("Outcome(3) = %+v, want only instance 4", out)
	}
}

func TestPrepareRoundPrefersStateCopyAtEqualBallot(t *testing.T) {
	r := NewPrepareRound(bal(5, 0), 2)
	noState := ent(10, "x", false)
	noState.Bal = bal(2, 0)
	withState := ent(10, "x", true)
	withState.Bal = bal(2, 0)
	r.Add(&wire.Promise{Bal: bal(5, 0), OK: true, Entries: []wire.Entry{noState}}, 1)
	r.Add(&wire.Promise{Bal: bal(5, 0), OK: true, Entries: []wire.Entry{withState}}, 2)
	out := r.Outcome(0)
	if len(out) != 1 || !out[0].Prop.HasState {
		t.Fatalf("Outcome = %+v, want the state-carrying copy", out)
	}
}

func TestAcceptRound(t *testing.T) {
	r := NewAcceptRound(bal(2, 0), []uint64{88, 89, 91}, 2)
	if r.Top != 91 {
		t.Fatalf("Top = %d", r.Top)
	}
	ack := func() *wire.Accepted {
		return &wire.Accepted{Bal: bal(2, 0), OK: true, Instances: []uint64{88, 89, 91}}
	}
	done, _ := r.Add(ack(), 0)
	if done {
		t.Fatal("quorum too early")
	}
	done, _ = r.Add(ack(), 0) // dup
	if done {
		t.Fatal("duplicate ack counted")
	}
	done, _ = r.Add(ack(), 1)
	if !done {
		t.Fatal("quorum not reached with two distinct acks")
	}
}

func TestAcceptRoundRejection(t *testing.T) {
	r := NewAcceptRound(bal(2, 0), []uint64{1}, 2)
	_, rej := r.Add(&wire.Accepted{Bal: bal(2, 0), OK: false, MaxProm: bal(7, 2)}, 1)
	if !rej || !r.MaxPromSeen().Equal(bal(7, 2)) {
		t.Fatalf("rejection handling wrong: rej=%v maxProm=%v", rej, r.MaxPromSeen())
	}
}

// TestAgreementProperty simulates competing proposers against a bank of
// acceptors and checks Paxos single-instance agreement: once a quorum
// accepts ballot b's value and no higher ballot interferes below quorum,
// any later prepare learns that value.
func TestAgreementProperty(t *testing.T) {
	const n = 5
	accs := make([]*Acceptor, n)
	for i := range accs {
		accs[i] = newAcc(t)
	}
	// Proposer A gets its value accepted by a quorum at ballot (1,0).
	valA := ent(1, "A", true)
	q := 0
	for i := 0; i < 3; i++ {
		acc, _ := accs[i].OnAccept(&wire.Accept{Bal: bal(1, 0), Entries: []wire.Entry{valA}})
		if acc.OK {
			q++
		}
	}
	if q < Quorum(n) {
		t.Fatal("setup failed")
	}
	// Proposer B prepares a higher ballot at an arbitrary majority; it
	// must learn A's value for instance 1.
	r := NewPrepareRound(bal(2, 1), Quorum(n))
	for _, idx := range []int{2, 3, 4} {
		p, _ := accs[idx].OnPrepare(&wire.Prepare{Bal: bal(2, 1), After: 0})
		r.Add(p, wire.NodeID(idx))
	}
	out := r.Outcome(0)
	if len(out) != 1 || string(out[0].Prop.Reqs[0].Op) != "A" {
		t.Fatalf("new leader failed to learn the accepted value: %+v", out)
	}
}

// prepEnt is ent() with an explicit ballot, for OutcomePrefix tests.
func prepEnt(inst uint64, op string, b wire.Ballot) wire.Entry {
	e := ent(inst, op, true)
	e.Bal = b
	return e
}

func TestOutcomePrefixAdoptsDenseSuffix(t *testing.T) {
	r := NewPrepareRound(bal(5, 0), 1)
	r.Add(&wire.Promise{Bal: bal(5, 0), OK: true, Chosen: 3, Entries: []wire.Entry{
		prepEnt(4, "a", bal(1, 0)), prepEnt(5, "b", bal(1, 0)), prepEnt(6, "c", bal(2, 1)),
	}}, 1)
	adopted, discarded := r.OutcomePrefix(3, bal(1, 0))
	if len(adopted) != 3 || discarded != 0 {
		t.Fatalf("adopted=%d discarded=%d, want 3/0", len(adopted), discarded)
	}
	for i, e := range adopted {
		if e.Instance != uint64(4+i) {
			t.Fatalf("adopted[%d].Instance = %d", i, e.Instance)
		}
	}
}

func TestOutcomePrefixStopsAtGap(t *testing.T) {
	// Instance 5 is missing: 6 and 7 are speculative waves whose
	// predecessor never survived; they cannot be committed and must go.
	r := NewPrepareRound(bal(5, 0), 1)
	r.Add(&wire.Promise{Bal: bal(5, 0), OK: true, Chosen: 3, Entries: []wire.Entry{
		prepEnt(4, "a", bal(1, 0)), prepEnt(6, "c", bal(1, 0)), prepEnt(7, "d", bal(1, 0)),
	}}, 1)
	adopted, discarded := r.OutcomePrefix(3, bal(1, 0))
	if len(adopted) != 1 || adopted[0].Instance != 4 || discarded != 2 {
		t.Fatalf("adopted=%+v discarded=%d, want only instance 4, 2 discarded", adopted, discarded)
	}
}

func TestOutcomePrefixStopsAtBallotRegression(t *testing.T) {
	// Instance 5 carries a lower ballot than 4: a stale straggler from a
	// deposed leader. Committed ballots are non-decreasing in instance
	// order, so it cannot be committed.
	r := NewPrepareRound(bal(5, 0), 1)
	r.Add(&wire.Promise{Bal: bal(5, 0), OK: true, Chosen: 3, Entries: []wire.Entry{
		prepEnt(4, "a", bal(2, 1)), prepEnt(5, "b", bal(1, 0)),
	}}, 1)
	adopted, discarded := r.OutcomePrefix(3, bal(1, 0))
	if len(adopted) != 1 || adopted[0].Instance != 4 || discarded != 1 {
		t.Fatalf("adopted=%+v discarded=%d, want only instance 4", adopted, discarded)
	}
	// And a suffix entirely below the floor (the committed ballot at
	// chosen) is discarded outright.
	adopted, discarded = r.OutcomePrefix(3, bal(3, 0))
	if len(adopted) != 0 || discarded != 2 {
		t.Fatalf("below-floor suffix survived: adopted=%+v discarded=%d", adopted, discarded)
	}
}

func TestAcceptorOutOfOrderSameBallot(t *testing.T) {
	// Pipelined leaders send wave i+1 before wave i is acked; losses can
	// reorder arrival. The acceptor must take same-ballot instances in any
	// order — gap-freedom is enforced at commit time, not accept time.
	a := newAcc(t)
	acc, _ := a.OnAccept(&wire.Accept{Bal: bal(2, 0), Entries: []wire.Entry{ent(5, "later", true)}})
	if !acc.OK {
		t.Fatalf("out-of-order accept rejected: %+v", acc)
	}
	acc, _ = a.OnAccept(&wire.Accept{Bal: bal(2, 0), Entries: []wire.Entry{ent(4, "earlier", true)}})
	if !acc.OK {
		t.Fatalf("gap-filling accept rejected: %+v", acc)
	}
	for _, inst := range []uint64{4, 5} {
		if _, ok := a.Get(inst); !ok {
			t.Fatalf("instance %d not stored", inst)
		}
	}
}

func TestAcceptRoundIgnoresStaleWaveAcks(t *testing.T) {
	// A straggler ack from the previous wave (same ballot, older
	// instances) must not count toward the current wave's quorum —
	// otherwise the leader commits entries no backup has accepted.
	r := NewAcceptRound(bal(2, 0), []uint64{5}, 2)
	done, rej := r.Add(&wire.Accepted{Bal: bal(2, 0), OK: true, Instances: []uint64{4}}, 1)
	if done || rej {
		t.Fatal("stale-instance ack counted toward quorum")
	}
	// Partial coverage of a multi-instance wave is also stale.
	r2 := NewAcceptRound(bal(2, 0), []uint64{5, 6}, 2)
	if done, _ := r2.Add(&wire.Accepted{Bal: bal(2, 0), OK: true, Instances: []uint64{5}}, 1); done {
		t.Fatal("partial ack counted")
	}
	// A full ack counts; with self-ack it reaches quorum.
	r2.Add(&wire.Accepted{Bal: bal(2, 0), OK: true, Instances: []uint64{5, 6}}, 0)
	done, _ = r2.Add(&wire.Accepted{Bal: bal(2, 0), OK: true, Instances: []uint64{6, 5}}, 1)
	if !done {
		t.Fatal("order-insensitive full ack must count")
	}
	// Rejections are ballot-based and need no instance match.
	r3 := NewAcceptRound(bal(2, 0), []uint64{9}, 2)
	if _, rej := r3.Add(&wire.Accepted{Bal: bal(2, 0), OK: false, MaxProm: bal(3, 1)}, 1); !rej {
		t.Fatal("rejection must apply regardless of instances")
	}
}
