package core

import (
	"time"

	"gridrep/internal/paxos"
	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// onRequest dispatches a client request according to its kind and the
// replica's role. Backups ignore everything except reads, which they
// confirm or — when the client named them its nearest replica — serve;
// clients rely on the broadcast reaching whoever currently leads (§3.3).
func (r *Replica) onRequest(req wire.Request) {
	switch req.Kind {
	case wire.KindRead:
		// One rule (reads.go): the replica the request names serves it,
		// everyone else — the leader included — only vouches. A read
		// that finds no server (no leader known yet, or this replica
		// would be it but is neither active nor preparing) is dropped;
		// the client retries.
		switch server, ok := r.readServer(req); {
		case !ok:
		case server != r.cfg.ID:
			r.confirmQ[server] = append(r.confirmQ[server], req.Key())
		case req.NearSet || r.IsActiveLeader():
			r.registerRead(req)
		case r.role == RolePreparing:
			r.deferRequest(req)
		}
	case wire.KindOriginal:
		// The paper's unreplicated baseline: execute and reply with no
		// coordination at all.
		if r.role == RoleLeading && r.activated {
			res, err := r.svc.Execute(req.Op)
			if err != nil {
				r.reply(req, wire.StatusError, nil, err.Error())
				return
			}
			r.reply(req, wire.StatusOK, res, "")
		}
	case wire.KindWrite:
		if r.role == RoleLeading && r.activated {
			r.admitWrite(req)
		} else if r.role == RolePreparing {
			r.deferRequest(req)
		}
	case wire.KindTxnOp, wire.KindTxnCommit, wire.KindTxnAbort:
		if r.role == RoleLeading && r.activated {
			r.onTxnRequest(req)
		} else if r.role == RolePreparing {
			r.deferRequest(req)
		}
	}
}

// deferRequest parks a request received during the prepare phase; it is
// replayed once the leader activates (bounded to protect memory). A
// request dropped at the cap is counted — the client retries, but a
// rising DeferredDrops means elections are too slow for the offered load.
func (r *Replica) deferRequest(req wire.Request) {
	if len(r.deferred) >= 65536 {
		r.stats.deferredDrops.Add(1)
		return
	}
	r.deferred = append(r.deferred, req)
}

// admitWrite queues a write for the next wave, deduplicating retransmits.
func (r *Replica) admitWrite(req wire.Request) {
	if r.dedup(req) {
		return
	}
	if r.exclusiveBusy() {
		r.blocked = append(r.blocked, req)
		return
	}
	r.pending[req.Key()] = true
	r.queue = append(r.queue, workItem{req: req, at: r.now})
	r.maybeStartWave()
}

// dedup implements at-most-once execution per client: a retransmitted
// request that already committed is answered from the reply cache; one
// that is queued or in flight is dropped (its reply will come).
func (r *Replica) dedup(req wire.Request) bool {
	if last, ok := r.lastReply[req.Client]; ok {
		if req.Seq == last.seq {
			r.send(req.Client, &wire.ReplyMsg{Rep: wire.Reply{
				Client: req.Client, Seq: req.Seq, Status: last.status,
				Leader: r.cfg.ID, Result: last.result,
			}})
			return true
		}
		if req.Seq < last.seq {
			return true // stale retransmit
		}
	}
	return r.pending[req.Key()]
}

// exclusiveBusy reports whether an exclusive (serialized) transaction
// currently owns the service, forcing everything else to wait.
func (r *Replica) exclusiveBusy() bool { return r.exclus && len(r.txns) > 0 }

// drainBlocked re-admits work that was parked behind an exclusive
// transaction.
func (r *Replica) drainBlocked() {
	if r.exclusiveBusy() || len(r.blocked) == 0 {
		return
	}
	blocked := r.blocked
	r.blocked = nil
	for _, req := range blocked {
		r.onRequest(req)
		if r.exclusiveBusy() {
			// A new exclusive transaction started. The rest of the list
			// is dropped, not parked again (r.blocked was emptied
			// above): their clients wait a rebroadcast. Kept, the rest
			// could hold a retransmitted opening op of a transaction
			// that has since finished, which would begin it again on
			// the live state with no commit or abort to follow
			// (ROADMAP, "A finished transaction can be begun again").
			break
		}
	}
}

// maybeStartWave launches the next accept wave once none is in flight:
// §3.3's serial protocol, instance i is not proposed before i−1 commits.
// Throughput comes from batching — the wave carries everything queued
// while its predecessor was in flight — not from overlapping waves
// (DESIGN.md §10). A membership change accepted while a client wave was
// in flight goes first, as its own wave, and holds the queue until it
// commits.
func (r *Replica) maybeStartWave() {
	if r.role != RoleLeading || !r.activated || r.wave != nil {
		return
	}
	if p := r.configProp; p != nil {
		r.configProp = nil
		entries := []wire.Entry{{Instance: r.nextInstance, Prop: *p}}
		r.nextInstance++
		r.logf("proposing config %v %v at instance %d", p.ConfigOp, p.ConfigNode, entries[0].Instance)
		r.launchWave(&wave{entries: entries, view: r.waveView()})
		return
	}
	// A batch whose every item failed launches nothing; try the next.
	for r.role == RoleLeading && r.wave == nil && len(r.queue) > 0 {
		items := r.queue
		r.queue = nil
		if r.cfg.NoBatch && len(items) > 1 {
			r.queue = items[1:]
			items = items[:1]
		}
		r.startWave(items)
	}
}

// startWave executes one batch of work items against the current service
// state and launches the covering accept wave.
func (r *Replica) startWave(items []workItem) {
	execStart := wallClock()
	var entries []wire.Entry
	var txns []*txnState
	// The state before this wave, pinned before it executes: the state
	// at the commit point while the wave is in flight, so a read never
	// waits for it (DESIGN.md §18). For an exclusive transaction's
	// commit, the one wave that launches while it is open, that is the
	// transaction's view: its ops already ran on the live state.
	view := r.waveView()
	for _, it := range items {
		if it.txn != nil {
			// T-Paxos commit: one instance decides the whole transaction
			// and carries its effect (§3.5) — the write set as one delta,
			// the aux each op captured, or full mode's wave top.
			reqs := append(append([]wire.Request{}, it.txn.ops...), it.req)
			results := append(append([][]byte{}, it.txn.results...), nil)
			prop := wire.Proposal{Reqs: reqs, Results: results}
			var err error
			switch r.mode {
			case stateDelta:
				prop.State, err = r.differ.CommitDelta(it.txn.ws)
				prop.HasState, prop.Kind = true, wire.StateDelta
			case stateReplay:
				prop.Aux = append(it.txn.aux, nil)
				fallthrough
			default:
				err = it.txn.ws.Commit()
			}
			if err != nil {
				r.finishTxn(it.txn)
				r.reply(it.req, wire.StatusAborted, nil, err.Error())
				continue
			}
			entries = append(entries, wire.Entry{Instance: r.nextInstance, Prop: prop})
			r.nextInstance++
			txns = append(txns, it.txn)
			continue
		}
		prop, err := r.executeWrite(it.req)
		if err != nil {
			delete(r.pending, it.req.Key())
			r.reply(it.req, wire.StatusError, nil, err.Error())
			continue
		}
		entries = append(entries, wire.Entry{Instance: r.nextInstance, Prop: prop})
		r.nextInstance++
	}
	if len(entries) == 0 {
		return
	}
	if r.mode == stateFull {
		// State rides on the top instance only (§3.3).
		top := &entries[len(entries)-1]
		top.Prop.State = r.svc.Snapshot()
		top.Prop.HasState = true
		top.Prop.Kind = wire.StateFull
	}
	exec := wallClock().Sub(execStart)
	r.stats.execLat.ObserveDuration(exec)
	// The queue is in admission order, so the first item is the oldest.
	r.launchWave(&wave{entries: entries, txns: txns, view: view, firstAt: items[0].at, exec: exec})
}

// waveView pins the state before a wave launches, for reads to execute
// on while it is in flight; nil for a service without ReadViewer, whose
// reads wait for the wave to commit. Every wave carries one: pinning
// costs the next write to each bucket a copy-on-write (DESIGN.md §14).
func (r *Replica) waveView() service.ReadView {
	if r.viewer == nil {
		return nil
	}
	return r.liveView()
}

// executeWrite runs one write on the service per the state mode,
// producing the proposal for its consensus instance.
func (r *Replica) executeWrite(req wire.Request) (wire.Proposal, error) {
	prop := wire.Proposal{Reqs: []wire.Request{req}, Results: make([][]byte, 1)}
	var err error
	switch r.mode {
	case stateReplay:
		prop.Aux = make([][]byte, 1)
		prop.Results[0], prop.Aux[0], err = r.replayer.ExecuteCapture(req.Op)
	case stateDelta:
		prop.Results[0], prop.State, err = r.differ.ExecuteDelta(req.Op)
		prop.HasState, prop.Kind = true, wire.StateDelta
	default:
		prop.Results[0], err = r.svc.Execute(req.Op)
	}
	return prop, err
}

// launchWave self-accepts and broadcasts one accept message covering all
// of the wave's instances; it becomes the wave in flight.
func (r *Replica) launchWave(w *wave) {
	insts := make([]uint64, len(w.entries))
	for i, e := range w.entries {
		insts[i] = e.Instance
	}
	w.round = paxos.NewAcceptRound(r.bal, insts, r.quorum())
	w.sentAt = r.now
	r.wave = w
	r.stats.wavesStarted.Add(1)
	r.stats.noteInFlight(1)

	msg := &wire.Accept{Bal: r.bal, Entries: w.entries, Commit: r.acc.Chosen()}
	acked, err := r.acc.OnAccept(msg)
	if err != nil {
		r.fatal("self-accept: %v", err)
		return
	}
	r.othersDo(msg)
	// The accept's Commit field just told every backup about all chosen
	// instances; any deferred commit notification rode along for free.
	r.flushAt = time.Time{}
	// The leader's own vote joins the quorum only once the staged accept
	// record is durable. The backups' votes arrive already durable, so a
	// quorum of backups can complete the wave before the local fsync
	// finishes — the leader's disk overlaps the network round trip. The
	// closure guards against its wave having committed or been rolled
	// back by the time it runs.
	r.deferLoop(func() {
		if r.role == RoleLeading && r.wave == w {
			r.addVote(acked, r.cfg.ID)
		}
	})
}

// onAccepted folds a phase-2b vote into the wave in flight.
func (r *Replica) onAccepted(from wire.NodeID, m *wire.Accepted) {
	if r.role != RoleLeading || r.wave == nil || !m.Bal.Equal(r.bal) {
		return
	}
	if !r.isVoter(from) {
		return // learners accept and persist, but their votes never count
	}
	if !m.OK {
		if r.maxSeen.Less(m.MaxProm) {
			r.maxSeen = m.MaxProm
		}
		r.logf("wave rejected by %v (promised %v)", from, m.MaxProm)
		r.elector.Demote() // withdraw the Ω claim; a stronger leader exists
		r.prepBackoff = r.now.Add(r.cfg.RetryTimeout)
		r.stepDown()
		return
	}
	r.addVote(m, from)
}

// addVote folds one vote into the wave in flight and, once it completes
// the quorum, commits the wave. AcceptRound.Add ignores a vote that does
// not cover the wave's instances (a late ack of an earlier wave).
// Client replies, reply-cache updates and transaction completion happen
// at the commit, then the next wave launches.
func (r *Replica) addVote(m *wire.Accepted, from wire.NodeID) {
	w := r.wave
	if done, _ := w.round.Add(m, from); !done {
		return
	}
	r.wave = nil
	r.stats.wavesCommitted.Add(1)
	r.stats.noteInFlight(0)
	if !w.recovery {
		lat := r.now.Sub(w.sentAt) - w.exec
		r.stats.quorumLat.ObserveDuration(lat)
		r.stats.commitLat.ObserveDuration(lat)
	}
	r.commitWave(w)
	if r.role != RoleLeading {
		return // commit failed fatally, or recovery activation reset us
	}
	// Serve the reads the commit unblocked, then launch the next wave.
	r.flushReads()
	r.maybeStartWave()
}

// commitWave marks one wave's instances chosen, informs the backups, and
// replies to its clients.
//
// Backups are not told with a standalone broadcast: the commit
// piggybacks on the next wave's accept message (its Commit field), which
// under load folds the two per-wave broadcasts into one. Only when no
// wave follows within CommitFlushDelay does flushCommit send the
// old-style Commit message.
func (r *Replica) commitWave(w *wave) {
	top := w.round.Top
	if err := r.acc.MarkChosen(top); err != nil {
		r.fatal("mark chosen: %v", err)
		return
	}
	r.flushAt = r.now.Add(r.cfg.CommitFlushDelay)

	if w.recovery {
		// Adopt the recovered state: the previous leader executed these
		// requests; fold their snapshots/deltas/replays in.
		r.applyCommitted(top)
		if r.applied != top {
			// The learned entries could not reconstruct state (e.g. a
			// mode mismatch) — unrecoverable locally.
			r.fatal("recovery produced state at %d, need %d", r.applied, top)
			return
		}
	} else {
		r.applied = top
	}

	// Configuration entries take effect exactly here, the commit point:
	// the participant set and quorum switch before any later wave can
	// launch. Recovery waves already applied theirs through
	// applyCommitted above; applyConfigEntry is idempotent past it.
	for _, e := range w.entries {
		if e.Prop.IsConfig() {
			r.applyConfigEntry(e.Instance, &e.Prop)
		}
	}
	if r.role != RoleLeading {
		return // the committed change removed this leader
	}

	for _, e := range w.entries {
		r.noteCommitted(e, !w.recovery)
	}
	if !w.firstAt.IsZero() {
		// Leader-side request latency: oldest admission in the wave to
		// its reply, the component of client-observed latency this
		// replica controls.
		r.stats.requestLat.ObserveDuration(r.now.Sub(w.firstAt))
	}
	for _, tx := range w.txns {
		r.finishTxn(tx)
	}
	r.maybeSnapshot(r.cfg.SnapshotEvery)

	if w.recovery {
		r.activate()
	}
}

// noteCommitted updates the reply cache for every request in a committed
// entry and sends the decisive reply. For a plain write that is the
// write itself; for a transaction it is the commit request — the
// transaction's inner operations were answered immediately when executed
// (§3.5), so only their cache entries are refreshed here.
func (r *Replica) noteCommitted(e wire.Entry, replyNow bool) {
	n := len(e.Prop.Reqs)
	for i, req := range e.Prop.Reqs {
		var res []byte
		if i < len(e.Prop.Results) {
			res = e.Prop.Results[i]
		}
		if cur, ok := r.lastReply[req.Client]; !ok || req.Seq > cur.seq {
			r.lastReply[req.Client] = cachedReply{seq: req.Seq, result: res, status: wire.StatusOK}
		}
		delete(r.pending, req.Key())
		if replyNow && i == n-1 {
			r.reply(req, wire.StatusOK, res, "")
		}
	}
}

// --- prepare completion and activation ---

// onPromise folds a phase-1b answer into the prepare round.
func (r *Replica) onPromise(from wire.NodeID, m *wire.Promise) {
	if r.role != RolePreparing || r.prep == nil || !m.Bal.Equal(r.bal) {
		return
	}
	if !r.isVoter(from) {
		return // only voter promises count toward the prepare quorum
	}
	done, rejected := r.prep.Add(m, from)
	if rejected {
		if r.maxSeen.Less(r.prep.MaxPromSeen()) {
			r.maxSeen = r.prep.MaxPromSeen()
		}
		r.prepBackoff = r.now.Add(r.cfg.RetryTimeout)
		r.stepDown()
		return
	}
	if done {
		r.onPrepared()
	}
}

// onPrepared runs after a majority has promised. If a promiser reported
// commits we lack, catch up first; otherwise finish activation.
func (r *Replica) onPrepared() {
	if r.prep.MaxChosen() > r.acc.Chosen() || r.applied < r.acc.Chosen() {
		r.awaitCatchup = true
		r.sendCatchup(r.now)
		return
	}
	r.finishActivation()
}

// finishActivation re-proposes the adoptable prefix of the proposals
// learned during prepare as a single recovery wave, then opens for
// business (§3.3's recovery example: one message covering the accept
// phases of several instances).
//
// Adoption is prefix-only (paxos.OutcomePrefix): deposed leaders may
// leave speculative instances past a gap or below a later ballot, and
// their attached states were computed on top of predecessors that were
// never chosen. The prepare quorum intersects the accept quorum of every
// committed instance, so the committed log is always a gap-free,
// ballot-monotone prefix of what prepare learns — anything past the first
// gap or ballot regression is provably uncommitted (hence unacked) and is
// discarded; its clients retransmit and re-execute on the adopted state.
func (r *Replica) finishActivation() {
	chosen := r.acc.Chosen()
	// The ballot that committed the chosen prefix seeds the monotonicity
	// floor. The local entry at the commit index is trusted: commit-index
	// advancement validates entries against the committing ballot, and
	// catch-up installs authoritative copies.
	var floor wire.Ballot
	if e, ok := r.acc.Get(chosen); ok {
		floor = e.Bal
	}
	learned, discarded := r.prep.OutcomePrefix(chosen, floor)
	if discarded > 0 {
		r.stats.recoveryDiscarded.Add(uint64(discarded))
		r.logf("recovery discarded %d speculative entries past a gap above %d",
			discarded, chosen)
	}
	r.role = RoleLeading
	r.rebuildReplyCache()

	if len(learned) == 0 {
		r.nextInstance = chosen + 1
		r.activate()
		return
	}
	entries := make([]wire.Entry, len(learned))
	for i, e := range learned {
		e.Bal = r.bal
		entries[i] = e
	}
	top := entries[len(entries)-1].Instance
	r.nextInstance = top + 1
	r.logf("recovery wave %d..%d", chosen+1, top)
	r.launchWave(&wave{entries: entries, recovery: true, view: r.waveView()})
}

// activate opens the leader for client traffic and replays requests that
// arrived during the prepare phase.
func (r *Replica) activate() {
	r.activated = true
	r.logf("active at chosen=%d ballot=%v", r.acc.Chosen(), r.bal)
	deferred := r.deferred
	r.deferred = nil
	for _, req := range deferred {
		r.onRequest(req)
	}
	r.flushReads()
	r.maybeStartWave()
}

// rebuildReplyCache reconstructs per-client reply state from the chosen
// log so a new leader answers retransmits of already-committed requests
// instead of re-executing them; the learned suffix above the commit index
// enters the cache when its re-proposal commits.
func (r *Replica) rebuildReplyCache() {
	r.lastReply = make(map[wire.NodeID]cachedReply)
	for inst := r.acc.PrunedTo() + 1; inst <= r.acc.Chosen(); inst++ {
		if e, ok := r.acc.Get(inst); ok {
			r.noteCommitted(e, false)
		}
	}
}
