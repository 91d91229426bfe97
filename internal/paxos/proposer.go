package paxos

import (
	"sort"

	"gridrep/internal/wire"
)

// NextBallot returns the smallest ballot owned by self that is strictly
// greater than cur.
func NextBallot(cur wire.Ballot, self wire.NodeID) wire.Ballot {
	b := wire.Ballot{Round: cur.Round, Node: self}
	if !cur.Less(b) {
		b.Round = cur.Round + 1
	}
	return b
}

// Quorum returns the majority size for n replicas: floor(n/2)+1, so that
// at most floor((n-1)/2) crashes are tolerated (§3.1).
func Quorum(n int) int { return n/2 + 1 }

// PrepareRound aggregates phase-1b promises for one ballot.
type PrepareRound struct {
	Bal      wire.Ballot
	quorum   int
	promised map[wire.NodeID]bool
	rejected bool
	maxProm  wire.Ballot

	entries       map[uint64]wire.Entry // highest-ballot proposal per instance
	maxChosen     uint64
	MaxChosenFrom wire.NodeID // who reported maxChosen: the peer to catch up from
}

// NewPrepareRound starts bookkeeping for a prepare at bal needing quorum
// positive promises.
func NewPrepareRound(bal wire.Ballot, quorum int) *PrepareRound {
	return &PrepareRound{
		Bal:      bal,
		quorum:   quorum,
		promised: make(map[wire.NodeID]bool),
		entries:  make(map[uint64]wire.Entry),
	}
}

// Add folds one promise in. It returns done=true once a majority has
// promised, and rejected=true if any acceptor reported a higher promise
// (the round is then dead and the caller should retry with a higher
// ballot after rejoining as a backup).
func (r *PrepareRound) Add(p *wire.Promise, from wire.NodeID) (done, rejected bool) {
	if !p.Bal.Equal(r.Bal) || r.rejected {
		return false, r.rejected
	}
	if !p.OK {
		r.rejected = true
		if r.maxProm.Less(p.MaxProm) {
			r.maxProm = p.MaxProm
		}
		return false, true
	}
	if r.promised[from] {
		return len(r.promised) >= r.quorum, false
	}
	r.promised[from] = true
	if p.Chosen > r.maxChosen {
		r.maxChosen, r.MaxChosenFrom = p.Chosen, from
	}
	for _, e := range p.Entries {
		cur, ok := r.entries[e.Instance]
		if !ok || cur.Bal.Less(e.Bal) {
			r.entries[e.Instance] = e
		} else if cur.Bal.Equal(e.Bal) && !cur.Prop.HasState && e.Prop.HasState {
			// Same ballot seen twice; prefer the copy carrying state.
			r.entries[e.Instance] = e
		}
	}
	return len(r.promised) >= r.quorum, false
}

// MaxPromSeen returns the highest conflicting promise reported by a
// rejecting acceptor.
func (r *PrepareRound) MaxPromSeen() wire.Ballot { return r.maxProm }

// MaxChosen returns the highest commit index reported by any promiser.
func (r *PrepareRound) MaxChosen() uint64 { return r.maxChosen }

// Outcome returns the proposals the new leader is bound to (instances
// above chosen, in order). Per Paxos, the leader may only propose values
// consistent with the highest-ballot proposals learned; instances with no
// learned proposal below the top must be filled with no-ops by the
// caller. Entries at or below chosen are dropped — they are already
// decided and will be fetched by catch-up if the leader lacks them.
func (r *PrepareRound) Outcome(chosen uint64) []wire.Entry {
	var out []wire.Entry
	for inst, e := range r.entries {
		if inst > chosen {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Instance < out[j].Instance })
	return out
}

// OutcomePrefix is Outcome for engines whose decided values chain across
// instances — the <req, state> tuples of §3.3, where state i is computed
// on top of state i−1. Such an engine may pipeline accept waves, so the
// learned suffix can contain speculative instances whose predecessors
// were never accepted anywhere. Adopting those would graft a state built
// on discarded history onto the log, so the new leader binds itself only
// to the longest adoptable prefix:
//
//   - adoption walks instances chosen+1, chosen+2, ... and stops at the
//     first gap — an instance past a gap depends on a predecessor no
//     quorum member accepted, hence (by quorum intersection) on an
//     uncommitted predecessor, hence it cannot itself be committed;
//   - adoption also stops at the first ballot regression below floor,
//     the ballot that committed the chosen prefix (committed ballots are
//     non-decreasing in instance order, so a lower-ballot straggler is a
//     leftover from a superseded leader whose slot was since redefined).
//
// It returns the adopted prefix in instance order plus the number of
// learned entries discarded; the caller re-proposes the prefix and
// reuses the discarded instances under its own higher ballot.
func (r *PrepareRound) OutcomePrefix(chosen uint64, floor wire.Ballot) (adopted []wire.Entry, discarded int) {
	learned := r.Outcome(chosen)
	next := chosen + 1
	for _, e := range learned {
		if e.Instance != next || e.Bal.Less(floor) {
			break
		}
		floor = e.Bal
		adopted = append(adopted, e)
		next++
	}
	return adopted, len(learned) - len(adopted)
}

// AcceptRound aggregates phase-2b votes for one accept wave (one message
// possibly covering several instances, per §3.3).
type AcceptRound struct {
	Bal       wire.Ballot
	Top       uint64 // highest instance in the wave
	quorum    int
	acks      map[wire.NodeID]bool
	rejected  bool
	maxProm   wire.Ballot
	instances []uint64
}

// NewAcceptRound starts bookkeeping for an accept wave.
func NewAcceptRound(bal wire.Ballot, instances []uint64, quorum int) *AcceptRound {
	var top uint64
	for _, i := range instances {
		if i > top {
			top = i
		}
	}
	return &AcceptRound{
		Bal:       bal,
		Top:       top,
		quorum:    quorum,
		acks:      make(map[wire.NodeID]bool),
		instances: instances,
	}
}

// Add folds one vote in; semantics mirror PrepareRound.Add. A positive
// vote only counts when it acknowledges this wave's instances — without
// that check, a straggler ack from the previous wave (same ballot!)
// would let the next wave commit before any backup accepted it,
// breaking the quorum-durability guarantee.
func (r *AcceptRound) Add(a *wire.Accepted, from wire.NodeID) (done, rejected bool) {
	if !a.Bal.Equal(r.Bal) || r.rejected {
		return false, r.rejected
	}
	if !a.OK {
		r.rejected = true
		if r.maxProm.Less(a.MaxProm) {
			r.maxProm = a.MaxProm
		}
		return false, true
	}
	if !r.covers(a.Instances) {
		return false, false // stale ack from an earlier wave
	}
	r.acks[from] = true
	return len(r.acks) >= r.quorum, false
}

// covers reports whether acked includes every instance of this wave.
func (r *AcceptRound) covers(acked []uint64) bool {
	if len(acked) < len(r.instances) {
		return false
	}
	set := make(map[uint64]bool, len(acked))
	for _, i := range acked {
		set[i] = true
	}
	for _, i := range r.instances {
		if !set[i] {
			return false
		}
	}
	return true
}

// MaxPromSeen returns the highest conflicting promise reported by a
// rejecting acceptor.
func (r *AcceptRound) MaxPromSeen() wire.Ballot { return r.maxProm }

// Instances returns the wave's instance numbers.
func (r *AcceptRound) Instances() []uint64 { return r.instances }
