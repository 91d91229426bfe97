// Package storage provides the stable storage a replica needs to survive
// crash-recovery (§3.1: faulty processes can recover and then execute the
// protocol correctly). Two facts must survive a crash:
//
//   - the acceptor's promises and accepted proposals, because forgetting a
//     promise could let the replica accept a smaller ballot and violate
//     Paxos safety; and
//   - the log of commands (§3.1), which guarantees that a new leader
//     learns about all previously accepted requests.
//
// A Store is single-writer (the replica's event loop) but may be read
// concurrently during snapshots.
package storage

import (
	"gridrep/internal/wire"
)

// PersistentState is everything a replica writes to stable storage.
type PersistentState struct {
	// Promised is the highest ballot the acceptor has promised.
	Promised wire.Ballot
	// MaxAccepted is the highest ballot among accepted proposals,
	// maintained for X-Paxos confirm routing (§3.4).
	MaxAccepted wire.Ballot
	// Accepted holds accepted proposals by instance. Per §3.3 a replica
	// remembers every accepted request but only needs the state of the
	// latest proposal; Compact enforces that.
	Accepted *AcceptedLog
	// Chosen is the commit index: all instances <= Chosen are chosen.
	Chosen uint64
	// ServiceSnap is the latest durable service-state snapshot, valid
	// after applying instance ServiceSnapAt. It is what makes WAL pruning
	// safe: every instance <= ServiceSnapAt is covered by the snapshot,
	// so its log entries may be discarded. The bytes are immutable once
	// saved: the store, the acceptor and clones share one slice.
	ServiceSnap   []byte
	ServiceSnapAt uint64
	// Members and Learners are the membership in force as decided by the
	// configuration entry at instance MembersAt (nil Members means the
	// boot-time static configuration). Membership is persisted explicitly
	// because the configuration entries that produced it may sit below
	// the pruned prefix and can no longer be replayed.
	Members   []wire.NodeID
	Learners  []wire.NodeID
	MembersAt uint64
	// PrunedTo records that accepted entries with instance <= PrunedTo
	// have been discarded from the log (a service snapshot covers them).
	PrunedTo uint64
}

// NewPersistentState returns an empty state.
func NewPersistentState() *PersistentState {
	return &PersistentState{Accepted: NewAcceptedLog()}
}

// AcceptedLog holds accepted proposals indexed by instance. Instances
// are dense and arrive almost always in order, so a flat slice (index =
// instance−1) serves lookups and inserts without hashing — and, unlike
// the map it replaced, without incremental rehash pauses on the replica
// event loop as the log grows across a long run.
type AcceptedLog struct {
	// base is the number of leading instances pruned away: instances
	// <= base are gone (covered by a service snapshot) and ents[i]
	// holds instance base+i+1.
	base uint64
	ents []wire.Entry // ents[i] holds instance base+i+1; Instance==0 marks a hole
	n    int          // number of present entries
	max  uint64       // highest instance ever present
	// stripLo is the slice index below which state payloads have already
	// been stripped; successive StripStatesBelow calls resume there
	// instead of rescanning from zero (compaction runs periodically
	// forever, so a fresh full scan each time would be quadratic).
	stripLo uint64
}

// NewAcceptedLog returns an empty log.
func NewAcceptedLog() *AcceptedLog { return &AcceptedLog{} }

// Get returns the proposal accepted for inst, if any.
func (l *AcceptedLog) Get(inst uint64) (wire.Entry, bool) {
	if inst <= l.base || inst > l.base+uint64(len(l.ents)) {
		return wire.Entry{}, false
	}
	e := l.ents[inst-l.base-1]
	return e, e.Instance != 0
}

// Put records e under its instance, overwriting any earlier proposal.
// Entries inside the pruned prefix are dropped: a service snapshot
// already covers them.
func (l *AcceptedLog) Put(e wire.Entry) {
	if e.Instance == 0 || e.Instance <= l.base {
		return
	}
	for l.base+uint64(len(l.ents)) < e.Instance {
		l.ents = append(l.ents, wire.Entry{})
	}
	i := e.Instance - l.base - 1
	if l.ents[i].Instance == 0 {
		l.n++
	}
	l.ents[i] = e
	if e.Instance > l.max {
		l.max = e.Instance
	}
}

// Len returns the number of instances holding an accepted proposal.
func (l *AcceptedLog) Len() int { return l.n }

// Max returns the highest instance that ever held an accepted proposal,
// 0 if none. Pruning does not lower it.
func (l *AcceptedLog) Max() uint64 { return l.max }

// Ascend calls fn on every present entry with lo < instance <= hi in
// instance order; hi == 0 means unbounded above. fn returning false
// stops the walk.
func (l *AcceptedLog) Ascend(lo, hi uint64, fn func(e wire.Entry) bool) {
	if hi != 0 && hi <= l.base {
		return
	}
	if lo < l.base {
		lo = l.base
	}
	start := lo - l.base
	end := uint64(len(l.ents))
	if hi != 0 && hi-l.base < end {
		end = hi - l.base
	}
	for i := start; i < end; i++ {
		if e := l.ents[i]; e.Instance != 0 {
			if !fn(e) {
				return
			}
		}
	}
}

// StripStatesBelow clears the state payloads of entries with instance <
// keepStateFrom, keeping their requests — the Compact semantics of §3.3
// (a new leader can still learn the full command log; only the latest
// state matters).
func (l *AcceptedLog) StripStatesBelow(keepStateFrom uint64) {
	if keepStateFrom == 0 || keepStateFrom <= l.base {
		return
	}
	end := uint64(len(l.ents))
	if rel := keepStateFrom - l.base - 1; rel < end {
		end = rel
	}
	for i := l.stripLo; i < end; i++ {
		if l.ents[i].Instance != 0 && l.ents[i].Prop.HasState {
			l.ents[i].Prop.HasState = false
			l.ents[i].Prop.State = nil
		}
	}
	if end > l.stripLo {
		l.stripLo = end
	}
}

// PruneTo discards every entry with instance < keepFrom. The survivors
// shift down in place, so the backing array is kept for the Puts that
// follow, and the vacated slots are zeroed, so the pruned payloads can
// be collected. Callers must ensure a service snapshot covers the
// discarded prefix first (see Store.PruneTo).
func (l *AcceptedLog) PruneTo(keepFrom uint64) {
	if keepFrom == 0 || keepFrom-1 <= l.base {
		return
	}
	newBase := keepFrom - 1
	if top := l.base + uint64(len(l.ents)); newBase > top {
		newBase = top
	}
	drop := newBase - l.base
	for i := uint64(0); i < drop; i++ {
		if l.ents[i].Instance != 0 {
			l.n--
		}
	}
	kept := copy(l.ents, l.ents[drop:])
	clear(l.ents[kept:])
	l.ents = l.ents[:kept]
	l.base = newBase
	if l.stripLo > drop {
		l.stripLo -= drop
	} else {
		l.stripLo = 0
	}
}

// Clone deep-copies the log structure (entries share backing payloads).
func (l *AcceptedLog) Clone() *AcceptedLog {
	return &AcceptedLog{base: l.base, ents: append([]wire.Entry(nil), l.ents...), n: l.n, max: l.max, stripLo: l.stripLo}
}

// Store is the stable-storage interface used by a replica. The protocol
// invariant is that every mutation is durable before any protocol message
// claiming it is sent. A plain Store provides that directly: each
// mutation is durable when the method returns. A Store that also
// implements Flusher may instead stage mutations and make them durable at
// the next Flush; the replica core detects this and routes the dependent
// sends through its persister goroutine, so the invariant holds with the
// fsync off the event loop.
type Store interface {
	// Load returns the persisted state, or a fresh empty state.
	Load() (*PersistentState, error)
	// SetPromised durably records a promise.
	SetPromised(b wire.Ballot) error
	// PutAccepted durably records accepted proposals and the new
	// max-accepted ballot.
	PutAccepted(entries []wire.Entry, maxAccepted wire.Ballot) error
	// SetChosen durably advances the commit index.
	SetChosen(idx uint64) error
	// Compact drops state payloads (not requests) from accepted entries
	// below keepStateFrom, bounding storage growth; requests are kept
	// so a new leader can still learn the full command log.
	Compact(keepStateFrom uint64) error
	// WriteSnapshot makes snap, the service snapshot valid after
	// applying instance at, durable beside the log without making it the
	// store's snapshot, and stages nothing: the bulk of SaveSnapshot, safe
	// to call off the event loop concurrently with every other call. A
	// store that keeps the bytes in its log, or in memory, has nothing to
	// do here.
	WriteSnapshot(snap []byte, at uint64) error
	// SaveSnapshot durably records the service snapshot valid after
	// applying instance at, superseding any older one; after a
	// WriteSnapshot of the same bytes it only records the reference. It
	// is the prune guard: PruneTo never discards entries the latest
	// snapshot does not cover.
	SaveSnapshot(snap []byte, at uint64) error
	// SetMembers durably records the membership decided by the
	// configuration entry at instance at.
	SetMembers(members, learners []wire.NodeID, at uint64) error
	// PruneTo discards accepted entries with instance < keepFrom,
	// clamped so the durable service snapshot always covers the
	// discarded prefix (keepFrom <= ServiceSnapAt+1).
	PruneTo(keepFrom uint64) error
	// Close releases resources.
	Close() error
}

// Flusher is a Store supporting staged group commit: with SetBuffered(true)
// mutations apply to the in-memory mirror immediately but buffer their
// records, and become durable together — one write, one sync — at the
// next Flush. The replica's persister goroutine owns Flush; no protocol
// message that claims staged state may be sent before the Flush covering
// it returns. Mem deliberately does not implement Flusher: it models
// infinitely fast storage, for which the inline path is already optimal.
type Flusher interface {
	Store
	// SetBuffered toggles staged mode. Callers must Flush before turning
	// buffering off.
	SetBuffered(on bool)
	// Staged reports whether unflushed staged records exist.
	Staged() bool
	// Flush makes every staged record durable per the store's sync
	// policy. Safe to call concurrently with staging.
	Flush() error
}

// Apply replays a mutation record onto s; shared by implementations.
func (s *PersistentState) putAccepted(entries []wire.Entry, maxAccepted wire.Ballot) {
	for _, e := range entries {
		s.Accepted.Put(e)
	}
	if s.MaxAccepted.Less(maxAccepted) {
		s.MaxAccepted = maxAccepted
	}
}

// ApplyMembers records a membership decision if it is newer than the one
// held; shared by implementations.
func (s *PersistentState) ApplyMembers(members, learners []wire.NodeID, at uint64) {
	if at < s.MembersAt && s.Members != nil {
		return
	}
	s.Members = append([]wire.NodeID(nil), members...)
	s.Learners = append([]wire.NodeID(nil), learners...)
	s.MembersAt = at
}

// ApplySnapshot records a service snapshot if it is at least as new as
// the one held; shared by implementations. It keeps snap itself, which
// the caller must not modify afterwards.
func (s *PersistentState) ApplySnapshot(snap []byte, at uint64) {
	if at < s.ServiceSnapAt {
		return
	}
	s.ServiceSnap = snap
	s.ServiceSnapAt = at
}

// Clone deep-copies the state (for snapshot isolation in tests), sharing
// only the immutable ServiceSnap bytes.
func (s *PersistentState) Clone() *PersistentState {
	return &PersistentState{
		Promised:      s.Promised,
		MaxAccepted:   s.MaxAccepted,
		Chosen:        s.Chosen,
		Accepted:      s.Accepted.Clone(),
		ServiceSnap:   s.ServiceSnap,
		ServiceSnapAt: s.ServiceSnapAt,
		Members:       append([]wire.NodeID(nil), s.Members...),
		Learners:      append([]wire.NodeID(nil), s.Learners...),
		MembersAt:     s.MembersAt,
		PrunedTo:      s.PrunedTo,
	}
}

// Mem is a volatile Store for tests and benchmarks. It models stable
// storage that is infinitely fast; the file-backed implementation is in
// file.go.
type Mem struct {
	state *PersistentState
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{state: NewPersistentState()} }

var _ Store = (*Mem)(nil)

// Load implements Store. It returns a deep copy so the caller owns it.
func (m *Mem) Load() (*PersistentState, error) { return m.state.Clone(), nil }

// SetPromised implements Store.
func (m *Mem) SetPromised(b wire.Ballot) error {
	if m.state.Promised.Less(b) {
		m.state.Promised = b
	}
	return nil
}

// PutAccepted implements Store.
func (m *Mem) PutAccepted(entries []wire.Entry, maxAccepted wire.Ballot) error {
	m.state.putAccepted(entries, maxAccepted)
	return nil
}

// SetChosen implements Store.
func (m *Mem) SetChosen(idx uint64) error {
	if idx > m.state.Chosen {
		m.state.Chosen = idx
	}
	return nil
}

// Compact implements Store.
func (m *Mem) Compact(keepStateFrom uint64) error {
	m.state.Accepted.StripStatesBelow(keepStateFrom)
	return nil
}

// WriteSnapshot implements Store: SaveSnapshot keeps the bytes.
func (m *Mem) WriteSnapshot(snap []byte, at uint64) error { return nil }

// SaveSnapshot implements Store.
func (m *Mem) SaveSnapshot(snap []byte, at uint64) error {
	m.state.ApplySnapshot(snap, at)
	return nil
}

// SetMembers implements Store.
func (m *Mem) SetMembers(members, learners []wire.NodeID, at uint64) error {
	m.state.ApplyMembers(members, learners, at)
	return nil
}

// PruneTo implements Store.
func (m *Mem) PruneTo(keepFrom uint64) error {
	if keepFrom > m.state.ServiceSnapAt+1 {
		keepFrom = m.state.ServiceSnapAt + 1
	}
	m.state.Accepted.PruneTo(keepFrom)
	if keepFrom > 0 && keepFrom-1 > m.state.PrunedTo {
		m.state.PrunedTo = keepFrom - 1
	}
	return nil
}

// Close implements Store.
func (m *Mem) Close() error { return nil }
