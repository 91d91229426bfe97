package core

import (
	"sort"
	"time"

	"gridrep/internal/paxos"
	"gridrep/internal/wire"
)

// onRequest dispatches a client request according to its kind and the
// replica's role. Backups ignore everything except reads, for which they
// send X-Paxos confirms; clients rely on the broadcast reaching whoever
// currently leads (§3.3).
func (r *Replica) onRequest(req wire.Request) {
	switch req.Kind {
	case wire.KindRead:
		if req.NearSet && req.Near != r.cfg.ID {
			// The client asked its nearest replica to serve this read;
			// everyone else — leader included — just vouches for it.
			r.queueNearConfirm(req)
		} else if req.NearSet && !(r.role == RoleLeading && r.activated) {
			r.registerNearRead(req)
		} else if r.role == RoleLeading && r.activated {
			r.registerRead(req)
		} else if r.role == RolePreparing {
			r.deferRequest(req)
		} else {
			r.sendConfirm(req)
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
	r.noteWriter(req.Client)
	if r.dedup(req) {
		return
	}
	if r.exclusiveBusy() {
		r.blocked = append(r.blocked, req)
		return
	}
	r.pending[req.Key()] = true
	r.queue = append(r.queue, workItem{req: req, at: time.Now()})
	r.maybeStartWave()
}

// noteWriter refreshes a client's slot in the live writer population
// (see Replica.writers); retransmits count — the client is still there.
func (r *Replica) noteWriter(c wire.NodeID) {
	r.writers[c] = time.Now()
}

// sweepWriters forgets writers that have been quiet for a full election
// timeout; called from the tick while leading.
func (r *Replica) sweepWriters(now time.Time) {
	for c, seen := range r.writers {
		if now.Sub(seen) > r.cfg.ElectionTimeout {
			delete(r.writers, c)
		}
	}
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
			// A new exclusive transaction started; park the rest again.
			break
		}
	}
}

// maybeStartWave launches accept waves while the pipeline rule allows.
// At PipelineDepth 1 this is §3.3's serial protocol: instance i is not
// proposed before i−1 commits. Deeper pipelines launch wave i+1 against
// the local speculative post-i state — the leader already executed wave i
// before proposing it, which is the paper's own insight — while wave i's
// quorum round trip and fsync are still outstanding. Each wave's undo
// snapshot captures the state it was built on, so the oldest in-flight
// wave's undo always equals the last committed state.
//
// Speculative launches are gated against batch fragmentation: launching
// on every arrival would turn one big wave per round trip into many
// single-request waves, trading the amortized per-wave cost (messages,
// WAL records, proposal bookkeeping) for overlap that closed-loop
// clients cannot exploit — the measured failure mode is waves/request
// going up 2-3x while throughput drops. A speculative wave launches only
// once every live writer already has a request queued or in flight
// (len(pending) covers both; r.writers is the recently-active writer
// population, swept of clients quiet for an election timeout). At that
// point no further arrival is likely before the next commit, so
// waiting longer cannot grow the batch — launching now is strictly
// earlier than the serial schedule with exactly the batch serial would
// have built. Clients that go quiet make the gate conservative (it
// degrades to the serial one-wave-per-commit schedule) only until the
// sweep forgets them, and never unsafe.
// An empty pipeline always launches immediately (that is the serial
// protocol's latency), and NoBatch mode skips the gate — there every
// wave carries one request by design, so fragmentation is the
// configuration, not a failure mode. If the gate defers a launch, the
// queued work goes out at the latest when the oldest wave commits,
// which is exactly the serial schedule.
func (r *Replica) maybeStartWave() {
	for r.role == RoleLeading && r.activated && !r.pendingConfig &&
		len(r.waves) < r.cfg.PipelineDepth && len(r.queue) > 0 {
		if !r.cfg.NoBatch && len(r.waves) > 0 &&
			len(r.pending) < len(r.writers) {
			return
		}
		items := r.queue
		r.queue = nil
		if r.cfg.NoBatch && len(items) > 1 {
			r.queue = items[1:]
			items = items[:1]
		}
		r.startWave(items)
	}
}

// startWave executes one batch of work items against the current (possibly
// speculative) service state and launches the covering accept wave.
func (r *Replica) startWave(items []workItem) {
	execStart := time.Now()
	undo := r.svc.Snapshot()
	var entries []wire.Entry
	var txns []*txnState
	var firstAt time.Time
	for _, it := range items {
		if !it.at.IsZero() && (firstAt.IsZero() || it.at.Before(firstAt)) {
			firstAt = it.at
		}
	}
	for _, it := range items {
		if it.txn != nil {
			// T-Paxos commit: one instance decides the whole
			// transaction and the state after applying it (§3.5).
			if it.txn.exclusive {
				// The pre-transaction snapshot is the only state
				// that excludes the transaction's effects.
				undo = it.txn.preSnap
			}
			if err := it.txn.ws.Commit(); err != nil {
				r.finishTxn(it.txn)
				r.reply(it.req, wire.StatusAborted, nil, err.Error())
				continue
			}
			reqs := append(append([]wire.Request{}, it.txn.ops...), it.req)
			results := append(append([][]byte{}, it.txn.results...), nil)
			prop := wire.Proposal{Reqs: reqs, Results: results}
			if r.mode != StateModeFull {
				// Transaction effects are not expressible as deltas or
				// replays; attach a full snapshot to this instance.
				prop.State = r.svc.Snapshot()
				prop.HasState = true
				prop.Kind = wire.StateFull
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
	if r.mode == StateModeFull {
		// State rides on the top instance only (§3.3).
		top := &entries[len(entries)-1]
		top.Prop.State = r.svc.Snapshot()
		top.Prop.HasState = true
		top.Prop.Kind = wire.StateFull
	}
	r.stats.execLat.Since(execStart)
	r.launchWave(&wave{entries: entries, undo: undo, txns: txns, firstAt: firstAt})
}

// executeWrite runs one write on the service per the state mode,
// producing the proposal for its consensus instance.
func (r *Replica) executeWrite(req wire.Request) (wire.Proposal, error) {
	switch r.mode {
	case StateModeReplay:
		res, aux, err := r.replayer.ExecuteCapture(req.Op)
		if err != nil {
			return wire.Proposal{}, err
		}
		return wire.Proposal{
			Reqs:    []wire.Request{req},
			Results: [][]byte{res},
			Aux:     [][]byte{aux},
		}, nil
	case StateModeDelta:
		res, delta, err := r.differ.ExecuteDelta(req.Op)
		if err != nil {
			return wire.Proposal{}, err
		}
		return wire.Proposal{
			Reqs:     []wire.Request{req},
			Results:  [][]byte{res},
			State:    delta,
			HasState: true,
			Kind:     wire.StateDelta,
		}, nil
	default:
		res, err := r.svc.Execute(req.Op)
		if err != nil {
			return wire.Proposal{}, err
		}
		return wire.Proposal{Reqs: []wire.Request{req}, Results: [][]byte{res}}, nil
	}
}

// launchWave self-accepts and broadcasts one accept message covering all
// of the wave's instances, appending it to the in-flight pipeline.
func (r *Replica) launchWave(w *wave) {
	insts := make([]uint64, len(w.entries))
	for i, e := range w.entries {
		insts[i] = e.Instance
	}
	w.round = paxos.NewAcceptRound(r.bal, insts, r.quorum())
	w.sentAt = time.Now()
	r.waves = append(r.waves, w)
	r.stats.wavesStarted.Add(1)
	r.stats.noteInFlight(len(r.waves))

	msg := &wire.Accept{Bal: r.bal, Entries: w.entries, Commit: r.acc.Chosen()}
	acked, err := r.acc.OnAccept(msg)
	if err != nil {
		r.fatal("self-accept: %v", err)
		return
	}
	r.othersDo(msg)
	// The accept's Commit field just told every backup about all chosen
	// instances; any deferred commit notification rode along for free.
	r.pendingCommit = false
	// The leader's own vote joins the quorum only once the staged accept
	// record is durable. The backups' votes arrive already durable, so a
	// quorum of backups can complete the wave before the local fsync
	// finishes — the leader's disk overlaps the network round trip. With
	// pipelining, several of these closures can be queued behind one
	// flush, one per outstanding wave; each guards against its wave
	// having committed or been rolled back by the time it runs.
	r.deferLoop(func() {
		if r.role != RoleLeading || !r.waveInFlight(w) {
			return
		}
		if done, _ := w.round.Add(acked, r.cfg.ID); done {
			r.noteAcked(w)
			r.commitReady()
		}
	})
}

// noteAcked marks a wave's quorum complete and stamps the quorum-phase
// latency (accept broadcast to quorum completion).
func (r *Replica) noteAcked(w *wave) {
	w.acked = true
	if !w.recovery {
		r.stats.quorumLat.Since(w.sentAt)
	}
}

// waveInFlight reports whether w is still in the in-flight pipeline.
func (r *Replica) waveInFlight(w *wave) bool {
	for _, cur := range r.waves {
		if cur == w {
			return true
		}
	}
	return false
}

// onAccepted folds a phase-2b vote into the in-flight wave it covers.
// Waves may complete their quorums out of order — a backup that missed
// wave i's accept still acks wave i+1 — but commitment stays in order:
// commitReady only pops the contiguous acked prefix.
func (r *Replica) onAccepted(from wire.NodeID, m *wire.Accepted) {
	if r.role != RoleLeading || len(r.waves) == 0 || !m.Bal.Equal(r.bal) {
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
		r.prepBackoff = time.Now().Add(r.cfg.RetryTimeout)
		r.stepDown()
		return
	}
	// The vote names the instances it covers; AcceptRound.Add ignores it
	// for any wave whose instance set it does not cover, so the ack
	// routes itself to the one wave it belongs to.
	for _, w := range r.waves {
		if w.acked {
			continue
		}
		if done, _ := w.round.Add(m, from); done {
			r.noteAcked(w)
		}
	}
	r.commitReady()
}

// commitReady commits the contiguous prefix of quorum-complete waves, in
// launch order. Client replies, reply-cache updates, and transaction
// completion happen per committed wave; a wave whose quorum finished
// early stays in flight until every predecessor commits, so no acked
// write can ever depend on an uncommitted instance.
func (r *Replica) commitReady() {
	committed := false
	for len(r.waves) > 0 && r.waves[0].acked {
		w := r.waves[0]
		r.waves = r.waves[1:]
		r.stats.wavesCommitted.Add(1)
		r.stats.noteInFlight(len(r.waves))
		if !w.recovery {
			r.stats.commitLat.Since(w.sentAt)
		}
		committed = true
		r.commitWave(w)
		if r.role != RoleLeading {
			return // commit failed fatally, or recovery activation reset us
		}
	}
	if !committed {
		return
	}
	// Unblock reads whose barrier (or speculative execution horizon) the
	// commits satisfied, then refill the pipeline.
	r.flushReads()
	r.flushNearReads()
	r.drainBlocked()
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
	r.pendingCommit = true
	defer func() {
		if r.pendingCommit {
			// Stop-and-drain before Reset: a plain Reset on a timer that
			// already fired (and whose tick was never read) would leave
			// the stale tick queued, making the next commit's flush
			// window fire immediately instead of after CommitFlushDelay.
			resetTimerDrained(r.commitFlush, r.cfg.CommitFlushDelay)
		}
	}()

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
		r.stats.requestLat.Since(w.firstAt)
	}
	for _, tx := range w.txns {
		r.finishTxn(tx)
	}
	r.maybeCompact()

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

// compactEvery is how many committed instances pass between log-state
// compactions.
const compactEvery = 1024

// maybeCompact strips old state payloads from the log periodically.
func (r *Replica) maybeCompact() {
	if chosen := r.acc.Chosen(); chosen-r.lastCompact >= compactEvery {
		r.lastCompact = chosen
		if err := r.acc.Compact(chosen); err != nil {
			r.fatal("compact: %v", err)
		}
	}
}

// --- X-Paxos read path (§3.4) ---

// sendConfirm implements the backup half of X-Paxos: confirm the read to
// the proposer of the highest ballot this replica has accepted. The key
// is only queued here; flushConfirms sends one coalesced Confirm for all
// reads that arrived in the same event-loop burst.
func (r *Replica) sendConfirm(req wire.Request) {
	if len(r.confirmQ) < 65536 {
		r.confirmQ = append(r.confirmQ, req.Key())
	}
}

// flushConfirms sends the queued read confirmations as one Confirm
// message per destination. The ballot and destination are evaluated at
// send time, which is what makes each listed key valid per-read
// evidence: the message leaves after every listed read was received,
// carrying the highest ballot this replica has accepted as of now.
// Every confirm also carries MaxAcc, the highest accepted instance —
// the near-read barrier (DESIGN.md §16); near-serving replicas take the
// max over their confirm quorum, so the stamp must be on every confirm
// a quorum might count, not just the near-targeted ones.
func (r *Replica) flushConfirms() {
	maxAcc, stamp := r.acc.MaxInstance(), !r.cfg.WireCompat
	if !stamp {
		// Compat mode: the stamp is a post-v1 trailing wire field old
		// peers cannot decode; an unstamped confirm still carries §3.4
		// leadership evidence, it just cannot vouch for near reads.
		maxAcc = 0
	}
	if r.nearQN > 0 {
		// Near-targeted confirms are durability-gated exactly like
		// leader-path ones. A near-serving backup ignores their ballot,
		// but when the client's Near target is the active leader the
		// read lands on the §3.4 path there (onRequest), and the
		// leader's onConfirm counts any matching-ballot voter confirm as
		// leadership evidence — so the ballot this message carries must
		// be backed by a flushed promise, or a crash that forgets the
		// staged record could let a new leader commit writes while the
		// old one still assembles read majorities from pre-crash
		// confirms. (The MaxAcc stamp alone would not need the gate: it
		// only ever raises the near-read barrier, so an overshooting
		// claim is harmless.)
		bal := r.acc.Promised()
		for target, keys := range r.nearQ {
			r.sendDurable(target, &wire.Confirm{Bal: bal, From: r.cfg.ID, Reads: keys, MaxAcc: maxAcc, MaxAccSet: stamp})
			delete(r.nearQ, target)
		}
		r.nearQN = 0
	}
	if len(r.confirmQ) == 0 {
		return
	}
	keys := r.confirmQ
	r.confirmQ = nil
	bal := r.acc.Promised()
	target := bal.Node
	if bal.IsZero() {
		// Nothing promised yet: fall back to the Ω estimate.
		leader, ok := r.elector.Leader(time.Now())
		if !ok {
			return
		}
		target = leader
	}
	if target == r.cfg.ID {
		return // we believe we lead but are not active; client will retry
	}
	// A confirm asserts this replica's promise/accept horizon; if that
	// ballot's promise is still staged, sending now would let a §3.4 read
	// majority count a vote the disk could forget. Durable-gate it.
	r.sendDurable(target, &wire.Confirm{Bal: bal, From: r.cfg.ID, Reads: keys, MaxAcc: maxAcc, MaxAccSet: stamp})
}

// registerRead starts X-Paxos coordination for a read at the leader: the
// reply needs (a) confirms from a majority — counting the leader itself —
// proving no higher ballot has superseded us, and (b) commitment of every
// write proposed before the read arrived, so the reply reflects the
// latest completed write.
func (r *Replica) registerRead(req wire.Request) {
	if r.exclusiveBusy() {
		r.blocked = append(r.blocked, req)
		return
	}
	key := req.Key()
	if _, dup := r.reads[key]; dup {
		return
	}
	pr := &pendingRead{
		req:      req,
		confirms: map[wire.NodeID]bool{r.cfg.ID: true},
		barrier:  r.nextInstance - 1,
	}
	for _, from := range r.confirmBuf[key] {
		pr.confirms[from] = true
	}
	delete(r.confirmBuf, key)
	r.reads[key] = pr
	r.tryFinishRead(pr)
}

// onConfirm counts a backup's confirms toward the matching pending
// reads. One message may vouch for many reads (backup-side coalescing);
// every key is independent evidence for its own read. Only confirms for
// the leader's own current ballot prove leadership; a confirm carrying
// any other ballot is ignored (§3.4: only the leader with the highest
// accepted ballot can assemble a majority).
func (r *Replica) onConfirm(m *wire.Confirm) {
	if r.role != RoleLeading || !m.Bal.Equal(r.bal) {
		// Not valid §3.4 leadership evidence — but it may still vouch
		// for reads this replica serves as the client's nearest, whose
		// claim (the sender's accepted horizon) is ballot-independent.
		r.onNearConfirm(m)
		return
	}
	if !r.isVoter(m.From) {
		return // a learner's confirm is not §3.4 majority evidence
	}
	for _, key := range m.Reads {
		if pnr, ok := r.nearReads[key]; ok {
			// Registered before this replica took leadership; the
			// confirm still serves it on the near path — but only a
			// stamped one: without MaxAcc there is no barrier claim to
			// fold, and counting it could serve a read below an
			// acknowledged write.
			if m.MaxAccSet {
				r.foldNearConfirm(pnr, m.From, m.MaxAcc)
				r.tryFinishNearRead(pnr)
			}
			continue
		}
		pr, ok := r.reads[key]
		if !ok {
			// The confirm can outrun the client's request; buffer it.
			if len(r.confirmBuf) < 65536 {
				r.confirmBuf[key] = append(r.confirmBuf[key], m.From)
			}
			continue
		}
		pr.confirms[m.From] = true
		r.tryFinishRead(pr)
	}
}

// --- nearest-replica reads (DESIGN.md §16) ---

// queueNearConfirm queues one confirm for a read another replica serves
// as the client's nearest; flushConfirms coalesces the queue into one
// Confirm per serving replica. Any role may vouch — the message claims
// only this replica's accepted horizon, never leadership.
func (r *Replica) queueNearConfirm(req wire.Request) {
	if r.nearQN >= 65536 {
		return
	}
	r.nearQ[req.Near] = append(r.nearQ[req.Near], req.Key())
	r.nearQN++
}

// registerNearRead starts serving a read stamped with this replica as
// the client's nearest. An active leader never lands here — onRequest
// routes its near-stamped reads through the ordinary §3.4 path, which
// is strictly cheaper when client and leader are already adjacent.
func (r *Replica) registerNearRead(req wire.Request) {
	key := req.Key()
	if _, dup := r.nearReads[key]; dup {
		return
	}
	pnr := &pendingNearRead{
		req:     req,
		froms:   make(map[wire.NodeID]bool),
		maxAcc:  r.acc.MaxInstance(),
		expires: time.Now().Add(r.cfg.ElectionTimeout),
	}
	if r.isVoter(r.cfg.ID) {
		pnr.froms[r.cfg.ID] = true
	}
	for _, c := range r.nearConfirmBuf[key] {
		r.foldNearConfirm(pnr, c.from, c.maxAcc)
	}
	delete(r.nearConfirmBuf, key)
	r.nearReads[key] = pnr
	r.tryFinishNearRead(pnr)
}

// onNearConfirm folds a confirm into the near reads it vouches for; a
// confirm that outran its read is buffered, mirroring confirmBuf. Only
// stamped confirms count: one without MaxAcc (a pre-§16 peer, or
// WireCompat mode) makes no barrier claim, and folding it as "barrier
// zero" could serve a read that misses an acknowledged write.
func (r *Replica) onNearConfirm(m *wire.Confirm) {
	if !r.isVoter(m.From) || !m.MaxAccSet {
		return
	}
	for _, key := range m.Reads {
		pnr, ok := r.nearReads[key]
		if !ok {
			if len(r.nearConfirmBuf) < 65536 {
				r.nearConfirmBuf[key] = append(r.nearConfirmBuf[key],
					nearConfirm{from: m.From, maxAcc: m.MaxAcc})
			}
			continue
		}
		r.foldNearConfirm(pnr, m.From, m.MaxAcc)
		r.tryFinishNearRead(pnr)
	}
}

// foldNearConfirm counts one voter's vouch and raises the read's
// barrier to the accepted horizon it reported.
func (r *Replica) foldNearConfirm(pnr *pendingNearRead, from wire.NodeID, maxAcc uint64) {
	if !r.isVoter(from) {
		return
	}
	pnr.froms[from] = true
	if maxAcc > pnr.maxAcc {
		pnr.maxAcc = maxAcc
	}
}

// tryFinishNearRead serves a near read once a voter quorum has vouched
// and the locally applied state covers every reported accepted horizon.
// Why that is linearizable: a write acked before the read started was
// accepted at its instance i by a majority; the read's voter quorum
// intersects it, and the intersecting voter had accepted i before it
// confirmed — so the barrier is ≥ i, and applied ≥ barrier means the
// served state includes the write. A leading replica additionally needs
// a quiet pipeline: with waves in flight (or an exclusive transaction
// open) the live service state is speculative, and a near read must
// only ever expose committed state.
func (r *Replica) tryFinishNearRead(pnr *pendingNearRead) {
	if len(pnr.froms) < r.quorum() || r.applied < pnr.maxAcc {
		return
	}
	if r.role == RoleLeading && (len(r.waves) > 0 || r.exclusiveBusy()) {
		return
	}
	delete(r.nearReads, pnr.req.Key())
	r.stats.readsNear.Add(1)
	res, err := r.svc.Execute(pnr.req.Op)
	if err != nil {
		r.reply(pnr.req, wire.StatusError, nil, err.Error())
		return
	}
	r.reply(pnr.req, wire.StatusOK, res, "")
}

// flushNearReads re-checks the near reads' gates after applied moved or
// the pipeline drained.
func (r *Replica) flushNearReads() {
	if len(r.nearReads) == 0 {
		return
	}
	var ready []*pendingNearRead
	for _, pnr := range r.nearReads {
		if len(pnr.froms) >= r.quorum() && r.applied >= pnr.maxAcc {
			ready = append(ready, pnr)
		}
	}
	for _, pnr := range ready {
		r.tryFinishNearRead(pnr)
	}
}

// sweepNearReads expires near reads whose quorum or barrier never
// materialized (partitioned voters, an accepted-but-never-chosen
// barrier instance). The client is told to retry; its rebroadcast
// drops the Near stamp and the leader path takes over. The confirm
// buffer is generation-swept on the same cadence so confirms for reads
// that never arrive cannot accrete.
func (r *Replica) sweepNearReads(now time.Time) {
	for key, pnr := range r.nearReads {
		if now.After(pnr.expires) {
			delete(r.nearReads, key)
			r.reply(pnr.req, wire.StatusNotLeader, nil, "near read timed out")
		}
	}
	if len(r.nearConfirmBuf) > 0 && now.Sub(r.nearBufSwept) > r.cfg.ElectionTimeout {
		r.nearBufSwept = now
		r.nearConfirmBuf = make(map[wire.Key][]nearConfirm)
	}
}

// tryFinishRead advances one read through its two gates. The read
// executes once a confirm majority proves leadership and the commit
// barrier is satisfied; under pipelining the service state it executes
// against may include speculative waves launched after the read arrived,
// so the reply is additionally held until everything proposed up to the
// execution point has committed. If those waves roll back instead, the
// leader steps down and the held read is answered NotLeader — the
// speculative result is never exposed. At PipelineDepth 1 the execution
// point never leads the commit index when both gates pass, so the reply
// leaves immediately, exactly the pre-pipelining behavior.
func (r *Replica) tryFinishRead(pr *pendingRead) {
	if !pr.executed {
		if len(pr.confirms) < r.quorum() || r.acc.Chosen() < pr.barrier {
			return
		}
		if r.dispatchRead(pr) {
			return
		}
		pr.executed = true
		r.stats.readsInline.Add(1)
		pr.execTop = r.nextInstance - 1
		res, err := r.svc.Execute(pr.req.Op)
		if err != nil {
			pr.failed = true
			pr.errStr = err.Error()
		} else {
			pr.result = res
		}
	}
	if r.acc.Chosen() < pr.execTop {
		return // result reflects speculative state; wait for its commit
	}
	delete(r.reads, pr.req.Key())
	if pr.failed {
		r.reply(pr.req, wire.StatusError, nil, pr.errStr)
		return
	}
	r.reply(pr.req, wire.StatusOK, pr.result, "")
}

// dispatchRead hands a gate-cleared read to the worker pool
// (readpool.go). Eligibility beyond the pool existing: no speculative
// wave may be in flight — with waves outstanding the live service state
// leads the commit index, and a view pinned now would expose
// uncommitted effects (those reads keep the inline execute-and-hold
// path) — and the service must agree to pin (a KV with open transaction
// locks refuses, because a frozen view cannot report lock conflicts).
// A full pool queue also falls back inline; the event loop never
// blocks. On dispatch the read is complete from the protocol's point of
// view — confirmed, barrier-committed, state pinned — so it leaves
// r.reads now and a later step-down has nothing to answer.
func (r *Replica) dispatchRead(pr *pendingRead) bool {
	if r.readPool == nil || len(r.waves) != 0 {
		return false
	}
	view, ok := r.viewer.ReadView()
	if !ok {
		return false
	}
	if !r.readPool.tryDispatch(readJob{view: view, req: pr.req}) {
		return false
	}
	delete(r.reads, pr.req.Key())
	r.stats.readsParallel.Add(1)
	return true
}

// flushReads re-checks barrier and execution-horizon satisfaction after a
// commit.
func (r *Replica) flushReads() {
	if len(r.reads) == 0 {
		return
	}
	chosen := r.acc.Chosen()
	var ready []*pendingRead
	for _, pr := range r.reads {
		if pr.executed {
			if chosen >= pr.execTop {
				ready = append(ready, pr)
			}
			continue
		}
		if len(pr.confirms) >= r.quorum() && chosen >= pr.barrier {
			ready = append(ready, pr)
		}
	}
	for _, pr := range ready {
		r.tryFinishRead(pr)
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
		r.prepBackoff = time.Now().Add(r.cfg.RetryTimeout)
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
		r.sendCatchup(time.Now())
		return
	}
	r.finishActivation()
}

// finishActivation re-proposes the adoptable prefix of the proposals
// learned during prepare as a single recovery wave, then opens for
// business (§3.3's recovery example: one message covering the accept
// phases of several instances).
//
// Adoption is prefix-only (paxos.OutcomePrefix): a crashed leader that
// was pipelining may leave speculative instances past a gap, and their
// attached states were computed on top of predecessors no quorum member
// accepted. The prepare quorum intersects the accept quorum of every
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
	r.launchWave(&wave{entries: entries, recovery: true})
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

// rebuildReplyCache reconstructs per-client reply state from the log so a
// new leader answers retransmits of already-committed requests instead of
// re-executing them.
func (r *Replica) rebuildReplyCache() {
	r.lastReply = make(map[wire.NodeID]cachedReply)
	chosen := r.acc.Chosen()
	// Scan all accepted entries at or below the commit index plus the
	// learned suffix (which is about to be re-proposed).
	var insts []uint64
	for inst := range acceptedInstances(r.acc, chosen) {
		insts = append(insts, inst)
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	for _, inst := range insts {
		e, _ := r.acc.Get(inst)
		for i, req := range e.Prop.Reqs {
			var res []byte
			if i < len(e.Prop.Results) {
				res = e.Prop.Results[i]
			}
			if cur, ok := r.lastReply[req.Client]; !ok || req.Seq > cur.seq {
				r.lastReply[req.Client] = cachedReply{seq: req.Seq, result: res, status: wire.StatusOK}
			}
		}
	}
}

// acceptedInstances enumerates the instances with accepted entries at or
// below the commit index.
func acceptedInstances(acc *paxos.Acceptor, chosen uint64) map[uint64]struct{} {
	out := make(map[uint64]struct{})
	for inst := uint64(1); inst <= chosen; inst++ {
		if _, ok := acc.Get(inst); ok {
			out[inst] = struct{}{}
		}
	}
	return out
}
