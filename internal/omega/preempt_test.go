package omega

import (
	"testing"
	"time"

	"gridrep/internal/wire"
)

// preemptElector builds an elector with rank preemption enabled and
// the given placement cost of its own; peers' costs ride on their
// heartbeats (costed).
func preemptElector(self wire.NodeID, cost uint32) *Elector {
	e := New(Config{
		Self:         self,
		Peers:        []wire.NodeID{0, 1, 2},
		Interval:     10 * time.Millisecond,
		Timeout:      50 * time.Millisecond,
		Preempt:      true,
		PreemptAfter: 30 * time.Millisecond,
	})
	e.SetCost(cost)
	return e
}

// costed stamps a gossiped placement cost on a heartbeat.
func costed(h *wire.Heartbeat, cost uint32) *wire.Heartbeat {
	h.Cost = cost
	return h
}

// TestPreemptReclaimsFromBootOrderWinner is the boot-order regression:
// node 0 boots first and claims, but node 2 has the lower placement
// cost. With preemption enabled, node 2 deposes node 0 after the
// holddown — so placement no longer depends on which replica started
// first.
func TestPreemptReclaimsFromBootOrderWinner(t *testing.T) {
	e := preemptElector(2, 1)
	// The boot-order winner's claim arrives and keeps refreshing.
	e.OnHeartbeat(costed(claimHB(0, 1), 2), t0)
	if l, ok := e.Leader(t0.Add(time.Millisecond)); !ok || l != 0 {
		t.Fatalf("leader = %v,%v; want incumbent 0 before holddown", l, ok)
	}
	// Conditions hold continuously; before the holddown elapses the
	// incumbent must be untouched.
	e.OnHeartbeat(costed(claimHB(0, 1), 2), t0.Add(20*time.Millisecond))
	if l, _ := e.Leader(t0.Add(25 * time.Millisecond)); l != 0 {
		t.Fatal("preemption must not fire before the holddown")
	}
	e.OnHeartbeat(costed(claimHB(0, 1), 2), t0.Add(30*time.Millisecond))
	l, ok := e.Leader(t0.Add(40 * time.Millisecond))
	if !ok || l != 2 {
		t.Fatalf("leader = %v,%v; want rank-preferred 2 after holddown", l, ok)
	}
	if e.ClaimEpoch() <= 1 {
		t.Fatalf("preemptor must out-claim the incumbent's epoch, got %d", e.ClaimEpoch())
	}
}

// TestNoPreemptWhenDisabled pins that the knob defaults off: without
// Preempt, a rank-preferred node never disturbs a live incumbent (the
// classic stability property).
func TestNoPreemptWhenDisabled(t *testing.T) {
	e := New(Config{
		Self:     2,
		Peers:    []wire.NodeID{0, 1, 2},
		Interval: 10 * time.Millisecond,
		Timeout:  50 * time.Millisecond,
	})
	e.SetCost(1)
	for i := 0; i < 20; i++ {
		at := t0.Add(time.Duration(i) * 10 * time.Millisecond)
		e.OnHeartbeat(costed(claimHB(0, 1), 2), at)
		if l, ok := e.Leader(at.Add(time.Millisecond)); !ok || l != 0 {
			t.Fatalf("step %d: leader = %v,%v; want stable incumbent 0", i, l, ok)
		}
	}
}

// TestPreemptUniqueness: only the best-ranked live member may preempt.
// Node 1 outranks the incumbent 0 but node 2 (alive) ranks even lower,
// so node 1 must never start a rival claim — no dueling preemptors.
func TestPreemptUniqueness(t *testing.T) {
	e := preemptElector(1, 2)
	for i := 0; i < 20; i++ {
		at := t0.Add(time.Duration(i) * 10 * time.Millisecond)
		e.OnHeartbeat(costed(claimHB(0, 1), 3), at)
		e.OnHeartbeat(costed(hb(2), 1), at) // 2 is alive but slow to claim
		if l, ok := e.Leader(at.Add(time.Millisecond)); !ok || l != 0 {
			t.Fatalf("step %d: leader = %v,%v; want 0 (node 1 must defer to 2)", i, l, ok)
		}
	}
}

// TestPreemptHolddownResets: a break in the conditions (the incumbent
// becomes best-ranked again via cost gossip) must restart the holddown.
func TestPreemptHolddownResets(t *testing.T) {
	e := preemptElector(2, 1)
	e.OnHeartbeat(costed(claimHB(0, 1), 2), t0)
	e.Leader(t0.Add(time.Millisecond)) // conditions first observed
	// At t=20ms the incumbent gossips a lower cost than ours: break.
	e.SetCost(5)
	e.OnHeartbeat(costed(claimHB(0, 1), 1), t0.Add(20*time.Millisecond))
	if l, _ := e.Leader(t0.Add(21 * time.Millisecond)); l != 0 {
		t.Fatal("cost-advantaged incumbent must not be preempted")
	}
	// Costs return at t=25ms; the holddown restarts from here, so
	// nothing may fire before t=55ms.
	e.SetCost(1)
	e.OnHeartbeat(costed(claimHB(0, 1), 2), t0.Add(25*time.Millisecond))
	e.Leader(t0.Add(26 * time.Millisecond))
	e.OnHeartbeat(costed(claimHB(0, 1), 2), t0.Add(45*time.Millisecond))
	if l, _ := e.Leader(t0.Add(50 * time.Millisecond)); l != 0 {
		t.Fatal("holddown must restart after a conditions break")
	}
	e.OnHeartbeat(costed(claimHB(0, 1), 2), t0.Add(55*time.Millisecond))
	if l, _ := e.Leader(t0.Add(60 * time.Millisecond)); l != 2 {
		t.Fatal("preemption must fire once the restarted holddown elapses")
	}
}

// TestCostOverridesBaseRank: gossiped placement costs are the major
// preference key — a high-ID node with the lowest cost is preferred,
// and preemption moves leadership onto it.
func TestCostOverridesBaseRank(t *testing.T) {
	e := New(Config{
		Self:         2,
		Peers:        []wire.NodeID{0, 1, 2},
		Interval:     10 * time.Millisecond,
		Timeout:      50 * time.Millisecond,
		Preempt:      true,
		PreemptAfter: 30 * time.Millisecond,
	})
	e.SetCost(10) // self: 10ms aggregate RTT
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	costHB := func(from wire.NodeID, epoch uint64, cost uint32) *wire.Heartbeat {
		h := claimHB(from, epoch)
		h.Cost = cost
		return h
	}
	// Node 0 leads (boot order) but sits far from everyone: cost 90.
	// Node 1 is alive at cost 40. Self (cost 10) is globally best and
	// must take over after the holddown.
	for ms := 0; ms <= 40; ms += 10 {
		e.OnHeartbeat(costHB(0, 1, 90), at(ms))
		h := hb(1)
		h.Cost = 40
		e.OnHeartbeat(h, at(ms))
		e.Leader(at(ms + 1))
	}
	l, ok := e.Leader(at(45))
	if !ok || l != 2 {
		t.Fatalf("leader = %v,%v; want lowest-cost node 2", l, ok)
	}
}

// TestUnknownCostRanksLast: a replica gossiping no cost (0 — RTT
// placement disabled, or an empty estimator) must never out-rank the
// replicas with measured costs. Regression for the inverted default:
// an absent cost used to be the *best* possible rank, so in a mixed
// deployment preemption converged leadership onto the one replica with
// no RTT data — the opposite of the feature's intent.
func TestUnknownCostRanksLast(t *testing.T) {
	e := New(Config{
		Self:         2,
		Peers:        []wire.NodeID{0, 1, 2},
		Interval:     10 * time.Millisecond,
		Timeout:      50 * time.Millisecond,
		Preempt:      true,
		PreemptAfter: 30 * time.Millisecond,
	})
	e.SetCost(10) // self measures: 10ms aggregate RTT bucket
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Node 0 leads from boot order but gossips no cost (placement off);
	// node 1 measures 40. The best-measured member — self — must
	// preempt the non-measuring incumbent after the holddown.
	for ms := 0; ms <= 40; ms += 10 {
		e.OnHeartbeat(claimHB(0, 1), at(ms)) // Cost zero: unknown
		h := hb(1)
		h.Cost = 40
		e.OnHeartbeat(h, at(ms))
		e.Leader(at(ms + 1))
	}
	l, ok := e.Leader(at(45))
	if !ok || l != 2 {
		t.Fatalf("leader = %v,%v; want measuring node 2, not the cost-blind incumbent", l, ok)
	}
}

// TestZeroCostsDegenerateToBaseRank pins byte-compat of the composed
// rank: with no costs gossiped anywhere, rank order is exactly the base
// rank order (here rank-by-ID).
func TestZeroCostsDegenerateToBaseRank(t *testing.T) {
	e := New(Config{
		Self:     0,
		Peers:    []wire.NodeID{0, 1, 2},
		Interval: 10 * time.Millisecond,
		Timeout:  50 * time.Millisecond,
		Preempt:  true,
	})
	e.OnHeartbeat(hb(1), t0)
	e.OnHeartbeat(hb(2), t0)
	l, ok := e.Leader(t0.Add(time.Millisecond))
	if !ok || l != 0 {
		t.Fatalf("leader = %v,%v; want lowest ID with all-zero costs", l, ok)
	}
}

// TestRankIsByID: with no costs gossiped every node sits at the same
// (unknown) cost, and the ID alone orders the rank — the classic
// lowest-ID-leads rule.
func TestRankIsByID(t *testing.T) {
	e := newElector(0)
	if got := e.rank(7) & (1<<costBits - 1); got != 7 {
		t.Fatalf("base of rank(7) = %d, want the ID", got)
	}
	for id := wire.NodeID(1); id < 8; id++ {
		if e.rank(id-1) >= e.rank(id) {
			t.Fatalf("rank(%d)=%d !< rank(%d)=%d — lowest ID must lead",
				id-1, e.rank(id-1), id, e.rank(id))
		}
	}
}
