package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"gridrep/internal/paxos"
	"gridrep/internal/wire"
)

// Online reconfiguration: membership changes decided by consensus,
// streaming snapshot catch-up for lagging or fresh replicas, and WAL
// pruning below the cluster-wide applied watermark. DESIGN.md §12.
//
// Membership is itself replicated state: a configuration change is a
// proposal (wire.Proposal.ConfigOp) decided by one Paxos instance under
// the *old* configuration, and every replica switches its participant
// set and quorum size at the instance's commit point. Changes are
// one-at-a-time — the leader refuses a second change while one is in
// flight — which keeps old and new quorums overlapping without joint
// consensus. A new node enters as a non-voting learner: it receives all
// broadcasts (so live accept traffic is its WAL suffix stream) but its
// votes are ignored and Ω never entitles it to lead; the leader
// promotes it with a committed add-voter entry once its gossiped
// applied watermark has caught up.

var (
	// ErrNotLeader: the replica is not the active leader.
	ErrNotLeader = errors.New("core: not the active leader")
	// ErrConfigInFlight: a configuration change is already in flight.
	ErrConfigInFlight = errors.New("core: configuration change already in flight")
	// ErrUnsafeChange: the change would leave the cluster unable to
	// form a quorum of live voters, or remove the leader itself.
	ErrUnsafeChange = errors.New("core: unsafe configuration change")
	// ErrStopped: the replica's event loop has exited.
	ErrStopped = errors.New("core: replica stopped")
)

const (
	// snapChunkSize bounds one catch-up chunk (bounded memory per
	// message; the requester reassembles).
	snapChunkSize = 256 << 10
	// maxSnapTotal bounds the reassembly buffer a requester will
	// allocate for a peer-announced snapshot size.
	maxSnapTotal = 1 << 31
	// promoteLag is how close (in instances) a learner's gossiped
	// applied watermark must be to the commit index before the leader
	// proposes its promotion to voter.
	promoteLag = 256
)

// snapFetch is the requester side of one in-progress snapshot stream:
// chunks are pulled sequentially by offset from a single peer, so memory
// stays bounded to the snapshot being assembled and the stream resumes
// from the last received offset after a drop.
type snapFetch struct {
	from     wire.NodeID
	at       uint64 // instance the snapshot is valid after
	total    uint64
	sum      uint32 // CRC-32 (IEEE) of the complete snapshot
	buf      []byte
	members  []wire.NodeID
	learners []wire.NodeID
	started  time.Time
	lastAt   time.Time
}

// isVoter reports whether n is in the current voting membership.
func (r *Replica) isVoter(n wire.NodeID) bool { return slices.Contains(r.voters, n) }

// isLearner reports whether n is a non-voting learner.
func (r *Replica) isLearner(n wire.NodeID) bool { return slices.Contains(r.learners, n) }

func removeID(ids []wire.NodeID, n wire.NodeID) []wire.NodeID {
	return slices.DeleteFunc(slices.Clone(ids), func(id wire.NodeID) bool { return id == n })
}

// refreshMembership rebuilds everything derived from the membership
// lists: the broadcast set (voters ∪ learners minus self), the Ω
// participant set (voters only — a learner is never entitled to lead),
// and the cross-goroutine health mirror.
func (r *Replica) refreshMembership() {
	r.others = removeID(append(slices.Clone(r.voters), r.learners...), r.cfg.ID)
	r.elector.SetPeers(r.voters)
	r.stats.membersView.Store(&membersView{
		members:  append([]wire.NodeID(nil), r.voters...),
		learners: append([]wire.NodeID(nil), r.learners...),
	})
}

// initMembership seeds the membership lists at boot: from the durably
// persisted configuration when one exists (it may sit below the pruned
// WAL prefix, so it cannot be replayed from log entries), else from the
// static boot configuration — minus self when joining, because a joiner
// is a learner until a committed configuration entry promotes it.
func (r *Replica) initMembership() {
	members, learners, at := r.acc.Members()
	switch {
	case members != nil:
		r.voters = append([]wire.NodeID(nil), members...)
		r.learners = append([]wire.NodeID(nil), learners...)
		r.membersAt = at
	case r.cfg.Join:
		r.voters = removeID(r.cfg.Peers, r.cfg.ID)
		r.learners = []wire.NodeID{r.cfg.ID}
	default:
		r.voters = append([]wire.NodeID(nil), r.cfg.Peers...)
	}
	r.joining = r.cfg.Join && !r.isVoter(r.cfg.ID)
	r.refreshMembership()
}

// notePeerAddr records a peer's transport address and installs it into
// the transport's address book when the transport routes by address.
func (r *Replica) notePeerAddr(id wire.NodeID, addr string) {
	if addr == "" || r.peerAddrs[id] == addr {
		return
	}
	r.peerAddrs[id] = addr
	if ab, ok := r.tr.(interface {
		SetAddr(wire.NodeID, string)
	}); ok {
		ab.SetAddr(id, addr)
	}
}

// notePeerApplied folds a gossiped applied watermark (heartbeats and
// join requests carry them) into the per-peer map the prune driver
// consults.
func (r *Replica) notePeerApplied(id wire.NodeID, applied uint64) {
	if id == r.cfg.ID {
		return
	}
	if cur, ok := r.peerApplied[id]; !ok || applied > cur {
		r.peerApplied[id] = applied
	}
}

// Reconfigure proposes a membership change. It must reach the active
// leader; the returned error is the leader's admission verdict.
// Commitment is asynchronous — the change is in force once a quorum
// has accepted the configuration entry and it commits, observable via
// Health().Members. Safe to call from any goroutine.
func (r *Replica) Reconfigure(op wire.ConfigOp, node wire.NodeID, addr string) error {
	err := ErrStopped
	r.Inspect(func(r *Replica) { err = r.proposeConfig(op, node, addr) })
	return err
}

// proposeConfig validates a membership change and launches it as its
// own single-entry accept wave. Event-loop only.
func (r *Replica) proposeConfig(op wire.ConfigOp, node wire.NodeID, addr string) error {
	if r.role != RoleLeading || !r.activated {
		return ErrNotLeader
	}
	if r.pendingConfig {
		return ErrConfigInFlight
	}
	switch op {
	case wire.ConfigAddVoter:
		if r.isVoter(node) {
			return nil // already a voter: trivially done
		}
		if !r.isLearner(node) {
			return fmt.Errorf("%w: node must join as a learner before promotion", ErrUnsafeChange)
		}
		if w, ok := r.peerApplied[node]; !ok || r.acc.Chosen() > w+promoteLag || w < r.acc.PrunedTo() {
			return fmt.Errorf("%w: learner too far behind to promote safely", ErrUnsafeChange)
		}
	case wire.ConfigRemove:
		if !r.isVoter(node) {
			if !r.isLearner(node) {
				return fmt.Errorf("%w: node is not a member", ErrUnsafeChange)
			}
			// Dropping a learner never touches quorums.
			break
		}
		if node == r.cfg.ID {
			return ErrUnsafeChange // transfer leadership first
		}
		// The surviving voters must still hold a live quorum of the
		// new (smaller) configuration, else the cluster wedges the
		// moment the change commits.
		live := 0
		for _, v := range r.voters {
			if v != node && r.elector.Alive(v, r.now) {
				live++
			}
		}
		if live < paxos.Quorum(len(r.voters)-1) {
			return ErrUnsafeChange
		}
	default:
		return fmt.Errorf("%w: unknown configuration op", ErrUnsafeChange)
	}
	prop := wire.Proposal{ConfigOp: op, ConfigNode: node, ConfigAddr: addr}
	entries := []wire.Entry{{Instance: r.nextInstance, Prop: prop}}
	r.nextInstance++
	r.pendingConfig = true
	r.logf("proposing config %v %v at instance %d", op, node, entries[0].Instance)
	r.launchWave(&wave{entries: entries})
	return nil
}

// applyConfigEntry switches the participant set at a configuration
// entry's commit point. Runs on every replica — the leader from
// commitWave, backups from applyCommitted — and during boot replay.
// The new membership is persisted as its own WAL record because the
// deciding entry may later be pruned away.
func (r *Replica) applyConfigEntry(inst uint64, p *wire.Proposal) {
	if inst <= r.membersAt {
		return // already in force (persisted membership from this or a later instance)
	}
	switch p.ConfigOp {
	case wire.ConfigAddVoter:
		r.learners = removeID(r.learners, p.ConfigNode)
		if !r.isVoter(p.ConfigNode) {
			r.voters = append(r.voters, p.ConfigNode)
		}
		r.notePeerAddr(p.ConfigNode, p.ConfigAddr)
	case wire.ConfigRemove:
		r.voters = removeID(r.voters, p.ConfigNode)
		r.learners = removeID(r.learners, p.ConfigNode)
		delete(r.peerApplied, p.ConfigNode)
	}
	r.membersAt = inst
	if err := r.acc.SetMembers(r.voters, r.learners, inst); err != nil {
		r.fatal("persist membership: %v", err)
		return
	}
	r.refreshMembership()
	r.stats.configCommits.Add(1)
	r.logf("config %v %v in force at %d (voters=%v learners=%v)",
		p.ConfigOp, p.ConfigNode, inst, r.voters, r.learners)
	if r.pendingConfig {
		r.pendingConfig = false
	}
	switch {
	case p.ConfigOp == wire.ConfigAddVoter && p.ConfigNode == r.cfg.ID:
		r.joining = false
		r.logf("promoted to voter")
	case p.ConfigOp == wire.ConfigRemove && p.ConfigNode == r.cfg.ID:
		if r.role != RoleBackup {
			r.stepDown()
		}
	}
}

// onJoinReq admits a joiner as a non-voting learner on every replica
// that hears it: from then on the joiner is in the broadcast set, so it
// receives heartbeats (learning the commit index to catch up toward)
// and live accept traffic (the WAL suffix above its snapshot). The
// learner set is soft until the promoting configuration entry persists
// it; a restarted joiner simply re-announces.
func (r *Replica) onJoinReq(m *wire.JoinReq) {
	if m.From == r.cfg.ID {
		return
	}
	r.notePeerAddr(m.From, m.Addr)
	r.notePeerApplied(m.From, m.Applied)
	if r.isVoter(m.From) || r.isLearner(m.From) {
		return
	}
	r.learners = append(r.learners, m.From)
	r.refreshMembership()
	r.logf("admitted %v as learner (applied=%d)", m.From, m.Applied)
}

// maybePromote proposes a committed add-voter entry for the first
// learner whose gossiped applied watermark has caught up: within
// promoteLag of the commit index AND past this leader's pruned prefix —
// a learner still below the prune point has not finished its snapshot
// install, no matter how short the log looks. Leader tick path.
func (r *Replica) maybePromote() {
	if r.role != RoleLeading || !r.activated || r.pendingConfig || len(r.learners) == 0 {
		return
	}
	chosen := r.acc.Chosen()
	for _, l := range r.learners {
		if w, ok := r.peerApplied[l]; ok && chosen <= w+promoteLag && w >= r.acc.PrunedTo() && (w > 0 || chosen == 0) {
			if err := r.proposeConfig(wire.ConfigAddVoter, l, r.peerAddrs[l]); err == nil {
				return
			}
		}
	}
}

// --- streaming snapshot catch-up ---

// snapSum returns the CRC-32 of the durable snapshot, cached per
// snapshot instance so serving n chunks costs one pass, not n.
func (r *Replica) snapSum(snap []byte, at uint64) uint32 {
	if r.snapSumAt != at {
		r.snapSumAt, r.snapSumVal = at, crc32.ChecksumIEEE(snap)
	}
	return r.snapSumVal
}

// sendSnapChunk serves one chunk of the durable service snapshot. The
// durable snapshot (not the live state) is served so the responder
// needs no quiescence and the bytes cannot change under an in-progress
// stream — SaveSnapshot replaces the slice wholesale, it never mutates
// it, so a pinned stream either finishes against the old bytes or the
// requester sees a new SnapAt and restarts.
func (r *Replica) sendSnapChunk(to wire.NodeID, offset uint64) {
	snap, at := r.acc.ServiceSnapshot()
	if at == 0 || offset > uint64(len(snap)) {
		return
	}
	end := offset + snapChunkSize
	if end > uint64(len(snap)) {
		end = uint64(len(snap))
	}
	r.stats.catchupChunksOut.Add(1)
	r.send(to, &wire.SnapChunk{
		From:     r.cfg.ID,
		SnapAt:   at,
		Total:    uint64(len(snap)),
		Offset:   offset,
		Data:     snap[offset:end],
		Sum:      r.snapSum(snap, at),
		Members:  append([]wire.NodeID(nil), r.voters...),
		Learners: append([]wire.NodeID(nil), r.learners...),
	})
}

// onSnapReq serves a requester-driven chunk pull. A request for a
// snapshot instance this replica no longer holds (SaveSnapshot moved
// on) restarts the stream at the current snapshot's offset 0.
func (r *Replica) onSnapReq(m *wire.SnapReq) {
	if _, at := r.acc.ServiceSnapshot(); m.SnapAt != 0 && m.SnapAt != at {
		r.sendSnapChunk(m.From, 0)
		return
	}
	r.sendSnapChunk(m.From, m.Offset)
}

// onSnapChunk folds one received chunk into the in-progress fetch,
// pulls the next, and installs the snapshot when complete. Only a
// replica that trails the snapshot and does not lead installs; anything
// else is a stale or duplicate stream.
func (r *Replica) onSnapChunk(m *wire.SnapChunk) {
	if m.SnapAt <= r.applied || m.Total > maxSnapTotal || r.role == RoleLeading {
		return
	}
	f := r.snapFetch
	if f == nil || f.at != m.SnapAt || f.from != m.From {
		if m.Offset != 0 {
			return // mid-stream chunk of a stream we are not assembling
		}
		if r.role == RolePreparing {
			// The effects above this would-be leader's state are gone from
			// the peer it asked: it stands down and fetches as a backup.
			r.logf("suffix above %d is gone at %v; standing down to fetch a snapshot", r.applied, m.From)
			r.stepDown()
		}
		f = &snapFetch{
			from:    m.From,
			at:      m.SnapAt,
			total:   m.Total,
			sum:     m.Sum,
			buf:     make([]byte, 0, m.Total),
			started: r.now,
		}
		r.snapFetch = f
	}
	if m.Offset != uint64(len(f.buf)) {
		return // duplicate or out-of-order; the retry path re-pulls
	}
	f.buf = append(f.buf, m.Data...)
	f.lastAt = r.now
	f.members = m.Members
	f.learners = m.Learners
	r.stats.catchupChunksIn.Add(1)
	r.stats.catchupBytes.Add(uint64(len(m.Data)))
	if uint64(len(f.buf)) < f.total {
		r.send(f.from, &wire.SnapReq{From: r.cfg.ID, SnapAt: f.at, Offset: uint64(len(f.buf))})
		return
	}
	r.installSnapshot(f)
}

// installSnapshot atomically adopts a fully assembled snapshot: verify
// the checksum, restore the service, persist the snapshot (the WAL has
// no entries below it to replay — the snapshot record *is* the durable
// prefix), advance the commit and applied indexes, adopt the shipped
// membership, and drop the now-covered local log prefix. Then the
// normal catch-up path streams the suffix above the snapshot.
func (r *Replica) installSnapshot(f *snapFetch) {
	r.snapFetch = nil
	if crc32.ChecksumIEEE(f.buf) != f.sum {
		r.logf("catch-up snapshot at %d from %v failed checksum; restarting", f.at, f.from)
		return // tick-driven catch-up starts a fresh stream
	}
	if f.at <= r.applied {
		return
	}
	if err := r.svc.Restore(f.buf); err != nil {
		r.fatal("catch-up snapshot restore: %v", err)
		return
	}
	if err := r.acc.SaveSnapshot(f.buf, f.at); err != nil {
		r.fatal("catch-up snapshot persist: %v", err)
		return
	}
	if err := r.acc.MarkChosen(f.at); err != nil {
		r.fatal("catch-up mark chosen: %v", err)
		return
	}
	if err := r.acc.PruneTo(f.at + 1); err != nil {
		r.fatal("catch-up prune: %v", err)
		return
	}
	r.applied = f.at
	if f.members != nil && f.at > r.membersAt {
		r.voters = append([]wire.NodeID(nil), f.members...)
		r.learners = append([]wire.NodeID(nil), f.learners...)
		r.membersAt = f.at
		if err := r.acc.SetMembers(r.voters, r.learners, f.at); err != nil {
			r.fatal("persist membership: %v", err)
			return
		}
		r.refreshMembership()
		r.joining = r.cfg.Join && !r.isVoter(r.cfg.ID)
	}
	r.stats.catchupInstalls.Add(1)
	r.stats.catchupLat.ObserveDuration(r.now.Sub(f.started))
	r.logf("installed catch-up snapshot at %d (%d bytes) from %v",
		f.at, len(f.buf), f.from)
	r.sendCatchup(r.now)
}

// tickFetch drives the in-progress snapshot stream's reliability: a
// quiet stream re-pulls the current offset; a dead one is abandoned so
// catch-up can move on to the next peer.
func (r *Replica) tickFetch(now time.Time) {
	f := r.snapFetch
	if f == nil || now.Sub(f.lastAt) <= r.cfg.RetryTimeout {
		return
	}
	if now.Sub(f.lastAt) > 4*r.cfg.RetryTimeout {
		r.logf("catch-up stream from %v stalled at %d/%d bytes; abandoning",
			f.from, len(f.buf), f.total)
		r.snapFetch = nil // the tick's catch-up, long overdue, asks the next peer
		return
	}
	r.send(f.from, &wire.SnapReq{From: r.cfg.ID, SnapAt: f.at, Offset: uint64(len(f.buf))})
}

// --- durable service snapshots and WAL pruning ---

// maybeSnapshot takes a durable service snapshot — the bound storage will
// not prune above — once applied is every instances past the last
// (SnapshotEvery at each commit point and on the tick, 1 for a catch-up
// responder that needs one now) and reports whether it did. Only a clean
// state is captured, with no speculative wave executions and no open
// exclusive transaction, so that the service reflects exactly instance
// r.applied. Compact then strips only what the snapshot covers, so the log
// keeps every effect above it, which is what rederive replays.
func (r *Replica) maybeSnapshot(every uint64) bool {
	_, at := r.acc.ServiceSnapshot()
	if r.applied < at+every || len(r.waves) > 0 || r.exclusiveBusy() {
		return false
	}
	if err := r.acc.SaveSnapshot(r.svc.Snapshot(), r.applied); err != nil {
		r.fatal("snapshot save: %v", err)
		return false
	}
	r.stats.snapSaves.Add(1)
	if err := r.acc.Compact(r.applied); err != nil {
		r.fatal("compact: %v", err)
		return false
	}
	return true
}

// maybePrune discards WAL entries below the cluster-wide minimum applied
// watermark (minus a retention slack) once at least PruneKeep of them can
// go: pruning copies the surviving log, so it runs in steps of PruneKeep
// rather than on every tick. Pruning requires a watermark from every
// current member — a silent or dead peer blocks pruning until it recovers
// or is removed, which is the safety property: no replica still entitled
// to entry catch-up can have its suffix pruned away (it would be forced
// into a full snapshot install instead, which also works, but the slack
// keeps the cheap path available). Storage additionally clamps the cut to
// the durable snapshot bound.
func (r *Replica) maybePrune() {
	min := r.applied
	for _, p := range r.others {
		w, ok := r.peerApplied[p]
		if !ok {
			return // never heard from p: cannot bound its lag
		}
		if w < min {
			min = w
		}
	}
	if min <= r.cfg.PruneKeep {
		return
	}
	keepFrom := min - r.cfg.PruneKeep + 1
	if _, at := r.acc.ServiceSnapshot(); keepFrom > at+1 {
		keepFrom = at + 1
	}
	pruned := r.acc.PrunedTo()
	if keepFrom-1 < pruned+r.cfg.PruneKeep {
		return
	}
	if err := r.acc.PruneTo(keepFrom); err != nil {
		r.fatal("wal prune: %v", err)
		return
	}
	r.stats.pruneRuns.Add(1)
	r.stats.pruneEntries.Add(keepFrom - 1 - pruned)
	r.logf("pruned wal below %d (cluster-min applied %d)", keepFrom, min)
}

// tickJoin broadcasts this joiner's announcement until a committed
// configuration entry makes it a voter (applyConfigEntry clears
// joining). Re-announcing is what makes joining idempotent across
// leader switches and joiner restarts.
func (r *Replica) tickJoin(now time.Time) {
	if !r.joining || now.Sub(r.joinSentAt) < r.cfg.RetryTimeout {
		return
	}
	r.joinSentAt = now
	r.othersDo(&wire.JoinReq{From: r.cfg.ID, Addr: r.cfg.AdvertiseAddr, Applied: r.applied})
}

// Voters returns the current voting membership (call inside Inspect).
func (r *Replica) Voters() []wire.NodeID {
	return append([]wire.NodeID(nil), r.voters...)
}
