// Package omega implements the leader-election service the paper assumes
// (§3.1: "we assume that there is an underlying leader election service").
//
// The elector is a heartbeat-based Ω failure detector with *claim-based
// stability*, following the leader-stability line of work the paper cites
// in §3.6 (Malkhi, Oprea, Zhou — DISC 2005). A node that decides to lead
// starts broadcasting a leadership claim stamped with an epoch one higher
// than any epoch it has observed. Among fresh claims from live nodes, the
// highest epoch wins (ties break to the lowest node ID), and a losing
// claimer stops claiming. This gives both properties the replication
// protocol needs:
//
//   - stability: a live incumbent keeps its leadership even when a
//     smaller-ID node recovers, because the recovering node sees the
//     incumbent's fresh claim and never starts a rival claim; and
//   - convergence: any two simultaneous claimers order themselves by
//     (epoch, ID) and one of them deterministically yields.
//
// Deployments that express a placement preference (an RTT-derived cost)
// can additionally enable *rank preemption* (Config.Preempt): the
// best-ranked live member deposes a worse-ranked incumbent by starting a
// fresh higher-epoch claim after a holddown. Without it, placement is a
// boot-order artifact — epoch-priority claims let whichever entitled
// replica claims first keep the group forever. Preemption is off by default,
// preserving the classic stability property exactly.
//
// The elector owns no goroutine and no clock: the replica's event loop
// feeds it received heartbeats and periodic ticks with an explicit
// timestamp, which makes elections deterministic under test.
package omega

import (
	"time"

	"gridrep/internal/wire"
)

// Config parameterizes an elector.
type Config struct {
	// Self is the local replica.
	Self wire.NodeID
	// Peers lists all replicas, including Self.
	Peers []wire.NodeID
	// Interval is the heartbeat broadcast period.
	Interval time.Duration
	// Timeout is how long a silent peer stays trusted, and how long a
	// claim stays fresh. It must exceed Interval plus the largest
	// expected one-way delay.
	Timeout time.Duration
	// Preempt lets the best-ranked live member depose a worse-ranked
	// incumbent (DESIGN.md §16). A node's rank is its gossiped placement
	// cost, then its ID: wherever the elector breaks ties or picks an
	// entitled claimer, the lowest rank wins. The rank alone only breaks
	// ties between simultaneous claims; with epoch-priority claims,
	// whichever entitled replica claims first otherwise keeps leadership
	// forever, making placement a boot-order artifact. With Preempt set,
	// a member that (a) ranks strictly below the incumbent, (b) is the
	// best-ranked live member overall — so at most one node ever
	// preempts — and (c) has observed both conditions continuously for
	// PreemptAfter, starts a fresh claim at maxEpoch+1; the incumbent yields by the
	// normal convergence rule. Off by default: the classic stability
	// property (an incumbent survives the recovery of a better-ranked
	// node) is preserved exactly.
	Preempt bool
	// PreemptAfter is the holddown before a rank preemption fires.
	// Zero means Timeout. It damps flapping when ranks shift (e.g. an
	// RTT-derived cost settling after boot): conditions must hold for a
	// full window before leadership moves.
	PreemptAfter time.Duration
}

type claim struct {
	epoch uint64
	at    time.Time
}

// Elector tracks peer liveness and leadership claims.
type Elector struct {
	cfg      Config
	start    time.Time
	started  bool
	lastSeen map[wire.NodeID]time.Time
	suspend  map[wire.NodeID]time.Time // distrust until this instant
	claims   map[wire.NodeID]claim
	lastSent time.Time
	sentAny  bool
	heardAny bool

	myClaim  bool
	myEpoch  uint64
	maxEpoch uint64 // highest claim epoch observed anywhere

	// preemptSince is when the rank-preemption conditions (see
	// Config.Preempt) were first continuously observed; zero when they
	// do not currently hold.
	preemptSince time.Time

	// myCost and costs carry the gossiped placement costs (SetCost,
	// Heartbeat.Cost). A cost prefixes the node ID lexicographically:
	// lower cost wins, the ID breaks ties. Zero is the "unknown /
	// placement off" sentinel and ranks behind every measured cost (see
	// costUnknown); all zero — the default when RTT placement is off —
	// degenerates to rank-by-ID.
	myCost uint32
	costs  map[wire.NodeID]uint32

	leader    wire.NodeID
	hasLeader bool
	changes   uint64 // leadership transitions observed locally
}

// New returns an elector. Call Tick regularly (at least every Interval)
// and OnHeartbeat for every received heartbeat.
func New(cfg Config) *Elector {
	return &Elector{
		cfg:      cfg,
		lastSeen: make(map[wire.NodeID]time.Time),
		suspend:  make(map[wire.NodeID]time.Time),
		claims:   make(map[wire.NodeID]claim),
		costs:    make(map[wire.NodeID]uint32),
	}
}

// SetPeers replaces the participant set after a committed configuration
// change. Peers need not include Self: a learner (or a removed node)
// tracks the voters' claims but is not entitled to start one — the
// entitlement rule in Leader only considers membership. Claims from
// nodes no longer in the set are dropped so a removed node cannot stay
// leader.
func (e *Elector) SetPeers(peers []wire.NodeID) {
	e.cfg.Peers = append([]wire.NodeID(nil), peers...)
	in := make(map[wire.NodeID]bool, len(peers))
	for _, p := range peers {
		in[p] = true
	}
	for n := range e.claims {
		if !in[n] {
			delete(e.claims, n)
		}
	}
	for n := range e.costs {
		if !in[n] {
			delete(e.costs, n)
		}
	}
	if !in[e.cfg.Self] {
		e.Demote()
	}
	if e.hasLeader && !in[e.leader] {
		e.hasLeader = false
	}
}

// isMember reports whether Self is in the current participant set.
func (e *Elector) isMember() bool {
	for _, p := range e.cfg.Peers {
		if p == e.cfg.Self {
			return true
		}
	}
	return false
}

// OnHeartbeat records a peer's heartbeat. A heartbeat whose Leader field
// names the sender and whose Epoch is nonzero is a leadership claim.
func (e *Elector) OnHeartbeat(hb *wire.Heartbeat, now time.Time) {
	e.noteStart(now)
	if hb.From == e.cfg.Self {
		return
	}
	if until, susp := e.suspend[hb.From]; susp {
		if now.Before(until) {
			return // still in the suspicion window: distrust entirely
		}
		delete(e.suspend, hb.From)
	}
	if cur, ok := e.lastSeen[hb.From]; !ok || cur.Before(now) {
		e.lastSeen[hb.From] = now
	}
	e.heardAny = true
	if hb.Leader == hb.From && hb.Epoch > 0 {
		e.claims[hb.From] = claim{epoch: hb.Epoch, at: now}
		if hb.Epoch > e.maxEpoch {
			e.maxEpoch = hb.Epoch
		}
	}
	if hb.Cost != e.costs[hb.From] {
		e.costs[hb.From] = hb.Cost
	}
}

// SetCost records this node's self-measured placement cost (an
// RTT-derived bucket; 0 = none/unknown, which ranks behind every
// measured cost). It is gossiped on every heartbeat this elector
// emits, so all observers rank this node the same way: effective rank
// is (cost, ID) lexicographic.
func (e *Elector) SetCost(c uint32) { e.myCost = c }

// Cost returns the node's own placement cost (for heartbeat stamping
// and introspection).
func (e *Elector) Cost() uint32 { return e.myCost }

// Observe records liveness evidence from any protocol message: under
// load, heartbeats queue behind bulk protocol traffic, and without this
// a saturated (but healthy) leader would be falsely suspected.
func (e *Elector) Observe(from wire.NodeID, now time.Time) {
	e.noteStart(now)
	if from == e.cfg.Self {
		return
	}
	if until, susp := e.suspend[from]; susp {
		if now.Before(until) {
			return
		}
		delete(e.suspend, from)
	}
	if cur, ok := e.lastSeen[from]; !ok || cur.Before(now) {
		e.lastSeen[from] = now
	}
	e.heardAny = true
}

func (e *Elector) noteStart(now time.Time) {
	if !e.started {
		e.started = true
		e.start = now
	}
}

// Suspect distrusts a node for one Timeout window: its heartbeats are
// ignored until the window passes. Failure injection and tests use it to
// force leader switches (§3.6).
func (e *Elector) Suspect(n wire.NodeID) {
	if n == e.cfg.Self {
		e.Demote()
		return
	}
	now := e.lastSeen[n]
	if e.started && e.start.After(now) {
		now = e.start
	}
	e.suspend[n] = now.Add(e.cfg.Timeout)
	delete(e.lastSeen, n)
	delete(e.claims, n)
	if e.hasLeader && e.leader == n {
		e.hasLeader = false
	}
}

// PeerDown records transport-level evidence that the link to n died (a
// socket error or missed transport heartbeat). Unlike Suspect, it opens
// no distrust window: the peer's liveness credit and claim are revoked
// immediately, but the first heartbeat after a reconnect re-trusts it.
// This is how real socket failures — not just missing Ω heartbeats —
// drive the §3.6 leader switches on the TCP deployment.
func (e *Elector) PeerDown(n wire.NodeID, now time.Time) {
	e.noteStart(now)
	if n == e.cfg.Self {
		return
	}
	delete(e.lastSeen, n)
	delete(e.claims, n)
	if e.hasLeader && e.leader == n {
		e.hasLeader = false
	}
}

// PeerUp records transport-level evidence that the link to n was
// (re-)established; it counts as plain liveness evidence.
func (e *Elector) PeerUp(n wire.NodeID, now time.Time) { e.Observe(n, now) }

// Demote withdraws the local leadership claim (if any); another claimer,
// or the min-alive rule, takes over.
func (e *Elector) Demote() {
	if e.myClaim {
		e.myClaim = false
		if e.hasLeader && e.leader == e.cfg.Self {
			e.hasLeader = false
		}
	}
}

// costBits is how much of the effective rank the node ID occupies; the
// gossiped cost is shifted above it. Node IDs stay below
// wire.ClientIDBase (1<<16), so 20 bits never clips one.
const costBits = 20

// costUnknown is the effective cost of a node gossiping cost 0 — the
// wire sentinel for "unknown / RTT placement off" (wire.Heartbeat.Cost).
// It sits strictly above every expressible measured cost, so a replica
// with no RTT data ranks behind every replica that has some: in a mixed
// deployment (placement enabled on some replicas only) leadership
// converges onto a measuring replica, never onto the one flying blind.
// This mirrors core's own convention (placementCostUnknown) that
// unknown ranks last; core never emits 0 for a genuine measurement
// (buckets are offset by one), so the sentinel cannot collide with a
// sub-millisecond RTT.
const costUnknown = uint64(1) << 32

// rank applies the leader-preference order: the gossiped placement cost
// is the major key, the node ID breaks ties. With no costs gossiped —
// the default — every node sits at costUnknown, and the order is
// exactly by ID.
func (e *Elector) rank(n wire.NodeID) uint64 {
	cost := uint64(e.costs[n])
	if n == e.cfg.Self {
		cost = uint64(e.myCost)
	}
	if cost == 0 {
		cost = costUnknown
	}
	return cost<<costBits | uint64(n)
}

// alive reports whether n responded within the timeout. Self is always
// alive.
func (e *Elector) alive(n wire.NodeID, now time.Time) bool {
	if n == e.cfg.Self {
		return true
	}
	seen, ok := e.lastSeen[n]
	return ok && now.Sub(seen) <= e.cfg.Timeout
}

// Alive reports whether n responded within the timeout (Self is always
// alive). The leader uses it to refuse membership changes that would
// drop the live voter count below the new configuration's quorum.
func (e *Elector) Alive(n wire.NodeID, now time.Time) bool { return e.alive(n, now) }

// Leader returns the current leader. The boolean is false when no live
// claim exists and this node is not entitled to start one.
func (e *Elector) Leader(now time.Time) (wire.NodeID, bool) {
	e.noteStart(now)

	// Collect fresh claims from live nodes, including our own.
	best := e.cfg.Self
	bestEpoch := uint64(0)
	found := false
	consider := func(n wire.NodeID, epoch uint64) {
		if !found || epoch > bestEpoch || (epoch == bestEpoch && e.rank(n) < e.rank(best)) {
			best, bestEpoch, found = n, epoch, true
		}
	}
	if e.myClaim {
		consider(e.cfg.Self, e.myEpoch)
	}
	for n, c := range e.claims {
		if now.Sub(c.at) <= e.cfg.Timeout && e.alive(n, now) {
			consider(n, c.epoch)
		}
	}

	if found {
		if best != e.cfg.Self && e.myClaim {
			// A stronger claim exists: yield (convergence).
			e.myClaim = false
		}
		if best != e.cfg.Self && e.shouldPreempt(best, now) {
			// Rank preemption (Config.Preempt): out-claim the
			// worse-ranked incumbent; everyone — incumbent included —
			// converges on the higher epoch.
			e.preemptSince = time.Time{}
			e.myClaim = true
			e.myEpoch = e.maxEpoch + 1
			e.maxEpoch = e.myEpoch
			e.setLeader(e.cfg.Self)
			return e.cfg.Self, true
		}
		if best == e.cfg.Self {
			e.preemptSince = time.Time{}
		}
		e.setLeader(best)
		return best, true
	}
	e.preemptSince = time.Time{}

	// No live claim anywhere. During the startup grace period, wait for
	// one rather than racing to self-elect.
	if !e.heardAny && now.Sub(e.start) < e.cfg.Timeout && len(e.cfg.Peers) > 1 {
		e.hasLeader = false
		return 0, false
	}

	// Entitlement rule: only the lowest-ranked live *member* starts a
	// new claim. A learner or removed node is never entitled, no matter
	// its rank: it waits for the voters to elect among themselves.
	if !e.isMember() {
		e.hasLeader = false
		return 0, false
	}
	min := e.cfg.Self
	for _, p := range e.cfg.Peers {
		if e.alive(p, now) && e.rank(p) < e.rank(min) {
			min = p
		}
	}
	if min != e.cfg.Self {
		// Someone smaller is alive but not claiming yet; wait for it.
		e.hasLeader = false
		return 0, false
	}
	e.myClaim = true
	e.myEpoch = e.maxEpoch + 1
	e.maxEpoch = e.myEpoch
	e.setLeader(e.cfg.Self)
	return e.cfg.Self, true
}

// shouldPreempt reports whether this node should depose the incumbent
// leader right now. All three preemption conditions (enabled+member,
// strictly better rank than the incumbent, best-ranked live member
// overall) must hold continuously for the holddown window; any break
// resets the clock.
func (e *Elector) shouldPreempt(incumbent wire.NodeID, now time.Time) bool {
	if !e.cfg.Preempt || !e.isMember() {
		return false
	}
	self := e.rank(e.cfg.Self)
	if self >= e.rank(incumbent) {
		e.preemptSince = time.Time{}
		return false
	}
	// Uniqueness: only the best-ranked live member preempts, so two
	// nodes that both outrank the incumbent never duel.
	for _, p := range e.cfg.Peers {
		if p != e.cfg.Self && e.alive(p, now) && e.rank(p) < self {
			e.preemptSince = time.Time{}
			return false
		}
	}
	if e.preemptSince.IsZero() {
		e.preemptSince = now
		return false
	}
	hold := e.cfg.PreemptAfter
	if hold <= 0 {
		hold = e.cfg.Timeout
	}
	return now.Sub(e.preemptSince) >= hold
}

func (e *Elector) setLeader(n wire.NodeID) {
	if !e.hasLeader || e.leader != n {
		e.leader = n
		e.hasLeader = true
		e.changes++
	}
}

// Epoch counts leadership changes observed locally.
func (e *Elector) Epoch() uint64 { return e.changes }

// ClaimEpoch returns the epoch of the local claim (0 when not claiming).
func (e *Elector) ClaimEpoch() uint64 {
	if !e.myClaim {
		return 0
	}
	return e.myEpoch
}

// Tick advances the elector's periodic work. It returns a heartbeat to
// broadcast if the heartbeat interval has elapsed, else nil. The
// heartbeat carries the local claim (Leader=self, Epoch=claim epoch) when
// this node is claiming leadership, or a plain leader hint otherwise.
func (e *Elector) Tick(now time.Time) *wire.Heartbeat {
	e.noteStart(now)
	if e.sentAny && now.Sub(e.lastSent) < e.cfg.Interval {
		return nil
	}
	e.lastSent = now
	e.sentAny = true
	leader, ok := e.Leader(now)
	hb := &wire.Heartbeat{From: e.cfg.Self, Cost: e.myCost}
	if ok {
		hb.Leader = leader
		if leader == e.cfg.Self && e.myClaim {
			hb.Epoch = e.myEpoch
		}
	}
	return hb
}
