// Package paxos implements the consensus substrate of the replication
// protocol: the acceptor state machine (phase 1b / 2b), proposer-side
// round aggregation (phase 1a / 2a bookkeeping), and the multi-instance
// recovery bookkeeping of §3.3 — a new leader prepares all unknown
// instances with a single message, and acceptors answer with the accepted
// proposals they know, attaching service state only to the highest
// instance because replicas only ever need the latest state.
package paxos

import (
	"sort"

	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

// Acceptor is the persistent voter role of a replica. It is driven by the
// replica's single event-loop goroutine and is not safe for concurrent
// use. Every state change is written through to stable storage before the
// corresponding protocol answer is returned, preserving safety across
// crash-recovery (§3.1).
type Acceptor struct {
	store storage.Store
	st    *storage.PersistentState
}

// NewAcceptor loads (or initializes) acceptor state from store.
func NewAcceptor(store storage.Store) (*Acceptor, error) {
	st, err := store.Load()
	if err != nil {
		return nil, err
	}
	return &Acceptor{store: store, st: st}, nil
}

// Promised returns the highest promised ballot.
func (a *Acceptor) Promised() wire.Ballot { return a.st.Promised }

// MaxAccepted returns the highest ballot among accepted proposals; the
// X-Paxos confirm path routes confirms to this ballot's proposer (§3.4).
func (a *Acceptor) MaxAccepted() wire.Ballot { return a.st.MaxAccepted }

// Chosen returns the commit index: every instance <= Chosen is chosen.
func (a *Acceptor) Chosen() uint64 { return a.st.Chosen }

// Get returns the accepted proposal for an instance, if any.
func (a *Acceptor) Get(inst uint64) (wire.Entry, bool) {
	return a.st.Accepted.Get(inst)
}

// MaxInstance returns the highest instance with an accepted proposal, or
// 0 when none exists.
func (a *Acceptor) MaxInstance() uint64 {
	return a.st.Accepted.Max()
}

// OnPrepare handles a phase-1a message and returns the promise to send
// back. A prepare with a ballot not smaller than the current promise
// succeeds (Paxos accepts re-prepares at the same ballot idempotently).
func (a *Acceptor) OnPrepare(p *wire.Prepare) (*wire.Promise, error) {
	if p.Bal.Less(a.st.Promised) {
		return &wire.Promise{Bal: p.Bal, OK: false, MaxProm: a.st.Promised, Chosen: a.st.Chosen}, nil
	}
	if a.st.Promised.Less(p.Bal) {
		if err := a.store.SetPromised(p.Bal); err != nil {
			return nil, err
		}
		a.st.Promised = p.Bal
	}
	return &wire.Promise{
		Bal:     p.Bal,
		OK:      true,
		Entries: a.entriesFor(p.After, p.Gaps),
		Chosen:  a.st.Chosen,
	}, nil
}

// entriesFor collects the accepted proposals for the prepared range: the
// listed gap instances plus everything above after. State is attached
// only to the highest instance (§3.3: "does not include the states after
// executing 88 or 89 since the replicas are only interested in the latest
// state").
func (a *Acceptor) entriesFor(after uint64, gaps []uint64) []wire.Entry {
	var out []wire.Entry
	for _, g := range gaps {
		if e, ok := a.st.Accepted.Get(g); ok && g <= after {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Instance < out[j].Instance })
	a.st.Accepted.Ascend(after, 0, func(e wire.Entry) bool {
		out = append(out, e)
		return true
	})
	stripIntermediateFullStates(out)
	return out
}

// stripIntermediateFullStates removes every full snapshot but the newest
// (§3.3: replicas only care about the latest state; a configuration entry
// may follow the wave top that carries it). Deltas are kept everywhere —
// each one is needed to rebuild the sequence.
func stripIntermediateFullStates(out []wire.Entry) {
	newest := true
	for i := len(out) - 1; i >= 0; i-- {
		if p := &out[i].Prop; p.HasState && p.Kind == wire.StateFull {
			if !newest {
				p.HasState, p.State = false, nil
			}
			newest = false
		}
	}
}

// OnAccept handles a phase-2a message and returns the vote. Accepting a
// ballot implies promising it (a process accepts any proposal with a
// ballot number no smaller than the ones it has already promised).
func (a *Acceptor) OnAccept(ac *wire.Accept) (*wire.Accepted, error) {
	if ac.Bal.Less(a.st.Promised) {
		return &wire.Accepted{Bal: ac.Bal, OK: false, MaxProm: a.st.Promised}, nil
	}
	if a.st.Promised.Less(ac.Bal) {
		if err := a.store.SetPromised(ac.Bal); err != nil {
			return nil, err
		}
		a.st.Promised = ac.Bal
	}
	stamped := make([]wire.Entry, len(ac.Entries))
	insts := make([]uint64, len(ac.Entries))
	for i, e := range ac.Entries {
		e.Bal = ac.Bal
		stamped[i] = e
		insts[i] = e.Instance
	}
	if err := a.store.PutAccepted(stamped, ac.Bal); err != nil {
		return nil, err
	}
	for _, e := range stamped {
		a.st.Accepted.Put(e)
	}
	if a.st.MaxAccepted.Less(ac.Bal) {
		a.st.MaxAccepted = ac.Bal
	}
	return &wire.Accepted{Bal: ac.Bal, OK: true, Instances: insts}, nil
}

// MarkChosen durably advances the commit index.
func (a *Acceptor) MarkChosen(idx uint64) error {
	if idx <= a.st.Chosen {
		return nil
	}
	if err := a.store.SetChosen(idx); err != nil {
		return err
	}
	a.st.Chosen = idx
	return nil
}

// Compact drops state payloads below keepStateFrom from storage; the
// requests are retained for leader recovery.
func (a *Acceptor) Compact(keepStateFrom uint64) error {
	if err := a.store.Compact(keepStateFrom); err != nil {
		return err
	}
	a.st.Accepted.StripStatesBelow(keepStateFrom)
	return nil
}

// EntriesBetween returns the accepted entries with lo < instance <= hi in
// instance order, only the newest full state attached, and the catch-up
// responder's predicate (DESIGN.md "State transfer"): does applying them
// in order take the state after lo to the state after hi? Each must be
// present and carry its effect (a delta, aux per request), have none by
// nature (a configuration entry) or precede a full state; else the
// effects were pruned or stripped by Compact.
func (a *Acceptor) EntriesBetween(lo, hi uint64) (out []wire.Entry, applicable bool) {
	applicable = lo >= a.st.PrunedTo
	a.st.Accepted.Ascend(lo, hi, func(e wire.Entry) bool {
		switch p := &e.Prop; {
		case p.HasState && p.Kind == wire.StateFull:
			applicable = true
		case len(p.Reqs) > 0 && !p.HasState && len(p.Aux) != len(p.Reqs):
			applicable = false
		}
		out = append(out, e)
		return true
	})
	stripIntermediateFullStates(out)
	return out, applicable && uint64(len(out)) == hi-lo
}

// ServiceSnapshot returns the durable service snapshot and the instance
// it is valid after, if any.
func (a *Acceptor) ServiceSnapshot() ([]byte, uint64) {
	return a.st.ServiceSnap, a.st.ServiceSnapAt
}

// SaveSnapshot durably records the service snapshot valid after applying
// instance at; it is the guard that makes PruneTo safe. The acceptor and
// the store keep snap itself: the caller must not modify it afterwards.
func (a *Acceptor) SaveSnapshot(snap []byte, at uint64) error {
	if err := a.store.SaveSnapshot(snap, at); err != nil {
		return err
	}
	a.st.ApplySnapshot(snap, at)
	return nil
}

// Members returns the persisted membership and the instance that decided
// it; nil members means the boot-time static configuration.
func (a *Acceptor) Members() (members, learners []wire.NodeID, at uint64) {
	return a.st.Members, a.st.Learners, a.st.MembersAt
}

// SetMembers durably records the membership decided at instance at.
func (a *Acceptor) SetMembers(members, learners []wire.NodeID, at uint64) error {
	if err := a.store.SetMembers(members, learners, at); err != nil {
		return err
	}
	a.st.ApplyMembers(members, learners, at)
	return nil
}

// PrunedTo returns the pruned-prefix bound: entries <= PrunedTo are gone.
func (a *Acceptor) PrunedTo() uint64 { return a.st.PrunedTo }

// PruneTo discards accepted entries below keepFrom (clamped by the store
// to the durable service snapshot).
func (a *Acceptor) PruneTo(keepFrom uint64) error {
	if err := a.store.PruneTo(keepFrom); err != nil {
		return err
	}
	if keepFrom > a.st.ServiceSnapAt+1 {
		keepFrom = a.st.ServiceSnapAt + 1
	}
	a.st.Accepted.PruneTo(keepFrom)
	if keepFrom > 0 && keepFrom-1 > a.st.PrunedTo {
		a.st.PrunedTo = keepFrom - 1
	}
	return nil
}

// Install stores already-chosen entries learned through catch-up, keeping
// their original ballots, and advances the commit index. Chosen values
// are unique per instance, so overwriting a locally accepted proposal
// with a chosen one is always safe.
func (a *Acceptor) Install(entries []wire.Entry, chosen uint64) error {
	if len(entries) > 0 {
		var maxBal wire.Ballot
		for _, e := range entries {
			if maxBal.Less(e.Bal) {
				maxBal = e.Bal
			}
		}
		if err := a.store.PutAccepted(entries, maxBal); err != nil {
			return err
		}
		for _, e := range entries {
			a.st.Accepted.Put(e)
		}
		if a.st.MaxAccepted.Less(maxBal) {
			a.st.MaxAccepted = maxBal
		}
	}
	return a.MarkChosen(chosen)
}
