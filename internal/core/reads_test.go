package core

import (
	"testing"
	"time"

	"gridrep/internal/paxos"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

// sendRecorder is a Transport stub that records direct sends; a
// protocol message landing here bypassed the durability gate.
type sendRecorder struct{ sent []*wire.Envelope }

func (s *sendRecorder) Local() wire.NodeID          { return 1 }
func (s *sendRecorder) Send(env *wire.Envelope)     { s.sent = append(s.sent, env) }
func (s *sendRecorder) Recv() <-chan *wire.Envelope { return nil }
func (s *sendRecorder) Close() error                { return nil }

// bareReplica is replica 1 of voters {0,1,2} with just enough wired up to
// drive the read path by hand, off any event loop. The staging store
// makes sendDurable defer instead of send.
func bareReplica(t *testing.T) (*Replica, *sendRecorder) {
	t.Helper()
	acc, err := paxos.NewAcceptor(storage.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	tr := &sendRecorder{}
	r := &Replica{
		acc:          acc,
		tr:           tr,
		svc:          service.NewNoop(),
		voters:       []wire.NodeID{0, 1, 2},
		reads:        make(map[wire.Key]*pendingRead),
		confirmBuf:   make(map[wire.Key][]heldConfirm),
		confirmQ:     make(map[wire.NodeID][]wire.Key),
		flusher:      newSimStore(),
		nextInstance: 1,
	}
	r.cfg.ID = 1
	r.cfg.ElectionTimeout = 200 * time.Millisecond
	return r, tr
}

// lead makes r the active leader of ballot bal.
func lead(r *Replica, bal wire.Ballot) {
	r.role, r.activated, r.bal = RoleLeading, true, bal
}

// TestNearConfirmsAreDurabilityGated pins the confirm gate (DESIGN.md
// §9): a confirm carries this replica's promised ballot, and when the
// replica it goes to is the active leader the ballot is counted as §3.4
// leadership evidence, so the confirm must not leave before the promise
// behind that ballot is durable — a read majority could otherwise count
// a promise still staged in the WAL, which a crash would forget. It
// leaves directly once the flush covering the promise has returned, and
// is deferred through the persister (sendDurable) while a newer promise
// is only staged. Either way a leader-path read and a near read bound
// for the same replica share one stamped message.
func TestNearConfirmsAreDurabilityGated(t *testing.T) {
	low, high := wire.Ballot{Round: 1, Node: 2}, wire.Ballot{Round: 2, Node: 2}
	// promise stages a promise of bal and ends the burst, as the event
	// loop does; flushed reports that burst's job durable.
	promise := func(t *testing.T, r *Replica, bal wire.Ballot) {
		t.Helper()
		if _, err := r.acc.OnPrepare(&wire.Prepare{Bal: bal}); err != nil {
			t.Fatal(err)
		}
		if _, ok := r.endBurst(); !ok {
			t.Fatal("a burst that staged a promise handed back no persist job")
		}
	}
	flushed := func(r *Replica) { r.durable(r.now, 1) }
	cases := []struct {
		name   string
		setup  func(*testing.T, *Replica)
		direct bool
	}{
		{"ConfirmDeferredWhilePromiseStaged", func(t *testing.T, r *Replica) {
			promise(t, r, low)
		}, false},
		{"ConfirmDirectOncePromiseFlushed", func(t *testing.T, r *Replica) {
			promise(t, r, low)
			flushed(r)
		}, true},
		{"ConfirmDeferredAgainAfterHigherPromise", func(t *testing.T, r *Replica) {
			promise(t, r, low)
			flushed(r)
			promise(t, r, high)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, tr := bareReplica(t)
			tc.setup(t, r)
			tr.sent, r.deferEnvs = nil, nil

			near := wire.Request{Client: wire.ClientIDBase, Seq: 7, Kind: wire.KindRead, Near: 2, NearSet: true}
			leaderPath := wire.Request{Client: wire.ClientIDBase + 1, Seq: 1, Kind: wire.KindRead}
			r.onRequest(near)
			r.onRequest(leaderPath)
			r.flushConfirms()

			out, other := r.deferEnvs, tr.sent
			if tc.direct {
				out, other = tr.sent, r.deferEnvs
			}
			if len(out) != 1 || len(other) != 0 {
				t.Fatalf("direct sends = %d, deferred = %d; want one coalesced confirm, sent directly = %v",
					len(tr.sent), len(r.deferEnvs), tc.direct)
			}
			c, ok := out[0].Msg.(*wire.Confirm)
			if !ok {
				t.Fatalf("message is %T, want *wire.Confirm", out[0].Msg)
			}
			if out[0].To != 2 || len(c.Reads) != 2 || !c.Bal.Equal(r.acc.Promised()) {
				t.Fatalf("confirm to %d = %+v, want both reads to replica 2 under the promised ballot %v",
					out[0].To, c, r.acc.Promised())
			}
			if !c.MaxAccSet {
				t.Fatal("confirm not stamped with MaxAcc — it cannot vouch for a near read's barrier")
			}
			if tc.direct && r.promDurable.Less(c.Bal) {
				t.Fatalf("confirm claiming %v sent directly with only %v flushed", c.Bal, r.promDurable)
			}
			if len(r.confirmQ) != 0 {
				t.Fatal("confirm queue not drained by flushConfirms")
			}
		})
	}
}

// TestReadVouchRule pins the one rule that decides whether a confirm
// counts toward a read and what it does to the barrier: by ballot (the
// active leader's own ballot — barrier stays its own horizon), by stamp
// (any role, any ballot — barrier rises to the stamp), otherwise not at
// all. The read starts at barrier 5; stamped confirms carry MaxAcc 9.
func TestReadVouchRule(t *testing.T) {
	mine, other := wire.Ballot{Round: 3, Node: 1}, wire.Ballot{Round: 4, Node: 0}
	const voter, learner = wire.NodeID(2), wire.NodeID(7)
	roles := map[string]func(*Replica){
		"backup":    func(r *Replica) { r.role, r.bal = RoleBackup, mine },
		"preparing": func(r *Replica) { r.role, r.bal = RolePreparing, mine },
		"active":    func(r *Replica) { lead(r, mine) },
	}
	cases := []struct {
		role    string
		bal     wire.Ballot
		stamped bool
		from    wire.NodeID
		counts  bool
		barrier uint64
	}{
		// The active leader: its own ballot vouches, stamped or not
		// (the unstamped row is an old peer), and leaves the
		// barrier alone; a foreign ballot needs the stamp.
		{"active", mine, true, voter, true, 5},
		{"active", mine, false, voter, true, 5},
		{"active", other, true, voter, true, 9},
		{"active", other, false, voter, false, 5},
		{"active", mine, true, learner, false, 5},
		{"active", mine, false, learner, false, 5},
		{"active", other, true, learner, false, 5},
		{"active", other, false, learner, false, 5},
		// Everyone else holds no leadership a ballot could prove: only
		// the stamp counts. An unstamped confirm makes no barrier claim,
		// and folding it as "barrier zero" could serve a read below an
		// acknowledged write.
		{"preparing", mine, true, voter, true, 9},
		{"preparing", mine, false, voter, false, 5},
		{"preparing", other, true, voter, true, 9},
		{"preparing", other, false, voter, false, 5},
		{"preparing", mine, true, learner, false, 5},
		{"preparing", mine, false, learner, false, 5},
		{"preparing", other, true, learner, false, 5},
		{"preparing", other, false, learner, false, 5},
		{"backup", mine, true, voter, true, 9},
		{"backup", mine, false, voter, false, 5},
		{"backup", other, true, voter, true, 9},
		{"backup", other, false, voter, false, 5},
		{"backup", mine, true, learner, false, 5},
		{"backup", mine, false, learner, false, 5},
		{"backup", other, true, learner, false, 5},
		{"backup", other, false, learner, false, 5},
	}
	for _, tc := range cases {
		r, _ := bareReplica(t)
		roles[tc.role](r)
		pr := &pendingRead{vouched: make(map[wire.NodeID]bool), barrier: 5}
		got := r.vouch(pr, heldConfirm{from: tc.from, bal: tc.bal, maxAcc: 9, stamped: tc.stamped})
		if got != tc.counts || pr.vouched[tc.from] != tc.counts || pr.barrier != tc.barrier {
			t.Errorf("%s, ballot mine=%v, stamped=%v, from %d: counted=%v barrier=%d, want %v / %d",
				tc.role, tc.bal == mine, tc.stamped, tc.from, got, pr.barrier, tc.counts, tc.barrier)
		}
	}

	t.Run("stamp never lowers the barrier", func(t *testing.T) {
		r, _ := bareReplica(t)
		pr := &pendingRead{vouched: make(map[wire.NodeID]bool), barrier: 5}
		if !r.vouch(pr, heldConfirm{from: voter, maxAcc: 2, stamped: true}) || pr.barrier != 5 {
			t.Fatalf("barrier = %d after a stamp of 2, want 5", pr.barrier)
		}
	})

	// A quorum may mix the two kinds of evidence: on five voters the
	// leader's own vote, one ballot-only voucher and one stamp-only
	// voucher make three, and the read then waits for the stamp.
	t.Run("mixed quorum", func(t *testing.T) {
		r, tr := bareReplica(t)
		r.voters = []wire.NodeID{0, 1, 2, 3, 4}
		lead(r, mine)
		r.applied = 5
		req := wire.Request{Client: wire.ClientIDBase, Seq: 1, Kind: wire.KindRead}
		pr := &pendingRead{req: req, vouched: map[wire.NodeID]bool{1: true}, barrier: 5}
		r.reads[req.Key()] = pr
		r.onConfirm(&wire.Confirm{Bal: mine, From: 2, Reads: []wire.Key{req.Key()}})
		if len(tr.sent) != 0 {
			t.Fatal("read served by two of five voters")
		}
		r.onConfirm(&wire.Confirm{Bal: other, From: 3, Reads: []wire.Key{req.Key()}, MaxAcc: 9, MaxAccSet: true})
		if len(pr.vouched) != 3 || pr.barrier != 9 {
			t.Fatalf("vouched=%v barrier=%d, want three vouchers and barrier 9", pr.vouched, pr.barrier)
		}
		if len(tr.sent) != 0 {
			t.Fatal("read served with applied state 5 below the stamped barrier 9")
		}
		r.applied = 9
		r.flushReads()
		if len(tr.sent) != 1 || tr.sent[0].Msg.(*wire.ReplyMsg).Rep.Status != wire.StatusOK {
			t.Fatalf("replies = %d, want the read served once applied reached the barrier", len(tr.sent))
		}
	})

	// What cannot vouch later is not held for later either.
	t.Run("useless evidence is not buffered", func(t *testing.T) {
		r, _ := bareReplica(t)
		r.role, r.bal = RoleBackup, mine
		key := wire.Key{Client: wire.ClientIDBase, Seq: 5}
		r.onConfirm(&wire.Confirm{Bal: other, From: voter, Reads: []wire.Key{key}})
		if len(r.confirmBuf) != 0 {
			t.Fatal("unstamped foreign-ballot confirm buffered as future evidence")
		}
		r.onConfirm(&wire.Confirm{Bal: other, From: voter, Reads: []wire.Key{key}, MaxAcc: 7, MaxAccSet: true})
		if len(r.confirmBuf[key]) != 1 {
			t.Fatal("stamped confirm that outran its read was not held")
		}
	})
}

// TestLateConfirmsDoNotWearOutTheBuffer: on a 3-replica cluster every
// served read leaves one late confirm behind (the quorum completed
// without it). Those must age out on the sweep, so that after far more
// than the buffer's cap of them a confirm that genuinely outruns its
// read is still held and counted.
func TestLateConfirmsDoNotWearOutTheBuffer(t *testing.T) {
	r, tr := bareReplica(t)
	bal := wire.Ballot{Round: 1, Node: 1}
	lead(r, bal)
	now := time.Unix(0, 0)
	late := func(seq uint64) *wire.Confirm {
		return &wire.Confirm{Bal: bal, From: 2, Reads: []wire.Key{{Client: wire.ClientIDBase, Seq: seq}}}
	}
	for seq := uint64(1); seq <= 70000; seq++ {
		r.onConfirm(late(seq))
		if seq%1000 == 0 {
			now = now.Add(r.cfg.ElectionTimeout + time.Millisecond)
			r.sweepReads(now)
		}
	}
	if n := len(r.confirmBuf); n > 2000 {
		t.Fatalf("%d late confirms still held; each should survive at most two sweeps", n)
	}

	req := wire.Request{Client: wire.ClientIDBase + 1, Seq: 1, Kind: wire.KindRead}
	r.onConfirm(&wire.Confirm{Bal: bal, From: 2, Reads: []wire.Key{req.Key()}})
	now = now.Add(r.cfg.ElectionTimeout + time.Millisecond)
	r.sweepReads(now) // one sweep must not take a confirm that young
	r.registerRead(req)
	if len(tr.sent) != 1 || tr.sent[0].Msg.(*wire.ReplyMsg).Rep.Status != wire.StatusOK {
		t.Fatalf("replies = %d: the early confirm was not counted when its read arrived", len(tr.sent))
	}

	for i := 0; i < 2; i++ {
		now = now.Add(r.cfg.ElectionTimeout + time.Millisecond)
		r.sweepReads(now)
	}
	if n := len(r.confirmBuf); n != 0 {
		t.Fatalf("%d held confirms after two idle sweep periods, want 0", n)
	}
}
