package core

import (
	"time"

	"gridrep/internal/wire"
)

// onPrepare answers a phase-1a message. Observing a higher ballot means
// another process is being elected: any local leadership is abandoned
// before voting.
func (r *Replica) onPrepare(from wire.NodeID, m *wire.Prepare) {
	if r.maxSeen.Less(m.Bal) {
		r.maxSeen = m.Bal
	}
	if r.role != RoleBackup && r.bal.Less(m.Bal) {
		r.logf("prepare %v from %v supersedes my %v", m.Bal, from, r.bal)
		r.stepDown()
	}
	p, err := r.acc.OnPrepare(m)
	if err != nil {
		r.fatal("prepare persist: %v", err)
		return
	}
	p.From = r.cfg.ID
	// The promise claims durable acceptor state; it leaves only after
	// the staged record is flushed.
	r.sendDurable(from, p)
}

// onAccept answers a phase-2a message. The accepted entries are persisted
// by the acceptor; their state is applied when the commit index covers
// them (§3.3: replicas keep every request but apply only the latest
// state).
func (r *Replica) onAccept(from wire.NodeID, m *wire.Accept) {
	if r.maxSeen.Less(m.Bal) {
		r.maxSeen = m.Bal
	}
	if r.role != RoleBackup && r.bal.Less(m.Bal) {
		r.logf("accept %v from %v supersedes my %v", m.Bal, from, r.bal)
		r.stepDown()
	}
	acked, err := r.acc.OnAccept(m)
	if err != nil {
		r.fatal("accept persist: %v", err)
		return
	}
	acked.From = r.cfg.ID
	// The phase-2b vote is the message §3.3's durability argument is
	// about: it must not leave before the accepted entries are on disk.
	// Deferring it through the persister overlaps the fsync with the
	// leader-side network round trip instead of serializing them.
	r.sendDurable(from, acked)
	if !acked.OK {
		return
	}
	r.advanceChosen(m.Commit, m.Bal)
}

// advanceChosen moves the commit index toward a leader's claim and
// applies the newly chosen entries to the service.
//
// The index only advances over instances whose local entry carries a
// ballot at least claimBal (the claimant's). A pipelining leader lets
// backups hold same-ballot instances out of order, and a leader switch
// can redefine an instance a stale accepted entry still occupies — so an
// entry below the claimed ballot may be a superseded leftover whose value
// was never chosen, and applying it would corrupt the state chain. An
// entry at the claimed ballot was committed by the claimant itself; one
// above it can only exist if a newer leader re-proposed the chosen value
// (P2c), so both are safe. Anything else stops the walk; the remainder of
// the claim becomes a hint the tick loop resolves through catch-up, whose
// Install is authoritative. A backup missing only state (not entries)
// falls behind in applied; the same tick path fetches the suffix.
func (r *Replica) advanceChosen(idx uint64, claimBal wire.Ballot) {
	chosen := r.acc.Chosen()
	if idx <= chosen {
		return
	}
	valid := chosen
	for inst := chosen + 1; inst <= idx; inst++ {
		e, ok := r.acc.Get(inst)
		if !ok || e.Bal.Less(claimBal) {
			break
		}
		valid = inst
	}
	if valid > chosen {
		if err := r.acc.MarkChosen(valid); err != nil {
			r.fatal("mark chosen: %v", err)
			return
		}
		r.applyCommitted(valid)
		r.maybeSnapshot(r.cfg.SnapshotEvery)
	}
	if valid < idx && idx > r.hintChosen {
		r.hintChosen = idx
	}
}

// applyCommitted folds chosen entries (applied, idx] into the service
// state, dispatching on what each proposal carries; with installSnapshot
// it is the only way a non-leader's applied index moves. DESIGN.md "State
// transfer" tabulates what each kind of proposal carries, who may strip
// it, and which arm consumes it.
func (r *Replica) applyCommitted(idx uint64) {
	for inst := r.applied + 1; inst <= idx; inst++ {
		e, ok := r.acc.Get(inst)
		if !ok {
			return // missing entry: stay behind, catch-up will fix it
		}
		p := &e.Prop
		switch {
		case len(p.Reqs) == 0:
			// A configuration entry (or an old no-op filler). Reached in
			// order even where full mode skipped the intermediates below:
			// applied never passes an entry the walk did not visit.
			if p.IsConfig() {
				r.applyConfigEntry(inst, p)
			}
			if r.applied == inst-1 {
				r.applied = inst
			}
		case p.HasState && p.Kind == wire.StateFull:
			// Subsumes all before it; full-mode intermediates fall through.
			if err := r.svc.Restore(p.State); err != nil {
				r.fatal("state restore at %d: %v", inst, err)
				return
			}
			r.applied = inst
		case p.HasState && p.Kind == wire.StateDelta:
			if r.applied != inst-1 || r.differ == nil {
				return // not contiguous (or wrong mode): need catch-up
			}
			if err := r.differ.ApplyDelta(p.State); err != nil {
				r.fatal("delta apply at %d: %v", inst, err)
				return
			}
			r.applied = inst
		case len(p.Aux) == len(p.Reqs):
			if r.applied != inst-1 || r.replayer == nil {
				return
			}
			for i := range p.Reqs {
				if p.Reqs[i].Kind == wire.KindTxnCommit {
					continue // the marker; the ops before it are the effect
				}
				if _, err := r.replayer.Replay(p.Reqs[i].Op, p.Aux[i]); err != nil {
					r.fatal("replay at %d: %v", inst, err)
					return
				}
			}
			r.applied = inst
		}
	}
}

// sendCatchup asks one peer for the chosen suffix above r.applied: the
// promiser that reported the highest commit index when preparing, else the
// leader the highest promise names, and on each repeat for the same gap
// the next entry of r.others — a peer that cannot answer is passed over.
func (r *Replica) sendCatchup(now time.Time) {
	if len(r.others) == 0 {
		return
	}
	to := r.acc.Promised().Node
	if r.role == RolePreparing {
		to = r.prep.MaxChosenFrom
	}
	i := r.lagAsks
	for j, p := range r.others {
		if p == to {
			i += j
		}
	}
	r.lagSince, r.lagAsks = now, r.lagAsks+1
	r.send(r.others[i%len(r.others)], &wire.CatchUpReq{From: r.cfg.ID, HaveChosen: r.applied})
}

// tickCatchup runs on each tick that finds applied trailing what is known
// chosen. A first sighting only starts the clock — a heartbeat's Chosen
// normally runs one piggybacked commit ahead and the next accept closes
// that gap; one open at the same applied index a RetryTimeout later is lag.
func (r *Replica) tickCatchup(now time.Time) {
	if r.lagSince.IsZero() || r.lagAt != r.applied {
		r.lagAt, r.lagSince, r.lagAsks = r.applied, now, 0
	} else if now.Sub(r.lagSince) > r.cfg.RetryTimeout {
		r.sendCatchup(now)
	}
}

// onCatchUpReq serves a lagging replica the chosen entries above its index
// while they still carry what applyCommitted needs. Once they do not, bulk
// state travels by the chunk stream (reconfig.go): the durable snapshot if
// it is ahead of the requester, else one taken now — a replica with no
// clean state past the requester stays silent.
func (r *Replica) onCatchUpReq(m *wire.CatchUpReq) {
	chosen := r.acc.Chosen()
	if chosen <= m.HaveChosen {
		return
	}
	if entries, ok := r.acc.EntriesBetween(m.HaveChosen, chosen); ok {
		r.send(m.From, &wire.CatchUpResp{From: r.cfg.ID, Entries: entries, Chosen: chosen})
		return
	}
	if _, at := r.acc.ServiceSnapshot(); at <= m.HaveChosen &&
		(r.applied <= m.HaveChosen || !r.maybeSnapshot(1)) {
		return
	}
	r.sendSnapChunk(m.From, 0)
}

// onCatchUpResp installs a peer's chosen entries and applies them as
// advanceChosen does; State and StateAt (older peers fill them) are ignored.
func (r *Replica) onCatchUpResp(m *wire.CatchUpResp) {
	if m.Chosen <= r.applied {
		return
	}
	if err := r.acc.Install(m.Entries, m.Chosen); err != nil {
		r.fatal("catch-up install: %v", err)
		return
	}
	r.applyCommitted(m.Chosen)
	r.maybeSnapshot(r.cfg.SnapshotEvery)
	r.logf("caught up to %d", r.applied)
	if r.role == RolePreparing && r.awaitCatchup && r.applied >= r.prep.MaxChosen() {
		r.awaitCatchup = false
		r.finishActivation()
	}
}
