package core

import (
	"time"

	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// The read path — X-Paxos (§3.4) and its nearest-replica form — is one
// rule (DESIGN.md "Reads" has the soundness argument):
//
//	replica R answers a read at barrier B once a voter quorum (R
//	included when it votes) has vouched and R's applied, committed
//	state covers B.
//
// Who serves is read off the request: the replica the client stamped as
// its nearest, else the active leader; everyone else only sends that
// replica a confirm. A confirm vouches by ballot (R is the active leader
// and the sender had promised R's own ballot: B stays R's commit index)
// or by stamp (the sender's accepted horizon MaxAcc: B rises to it,
// valid in any role); anything else is ignored. A gate-cleared read
// executes on the state at R's commit point, in the worker pool or on
// the event loop, however it was vouched.

// pendingRead is a read this replica serves, waiting for its voter
// quorum, for the applied state to reach its barrier, and for the state
// at the commit point to be readable (readState).
type pendingRead struct {
	req     wire.Request
	vouched map[wire.NodeID]bool // voters counted, self included when it votes
	barrier uint64               // instance the applied state must cover
	expires time.Time
}

// heldConfirm is one sender's evidence for one read: the ballot it had
// promised and, when stamped, its accepted horizon. Evidence that
// outruns the client's own request waits in confirmBuf, tagged with the
// sweep generation it arrived in.
type heldConfirm struct {
	from    wire.NodeID
	bal     wire.Ballot
	maxAcc  uint64
	stamped bool
	gen     uint64
}

// readServer names the replica that serves a read: the client's stamped
// nearest replica, else the leader as this replica knows it — the
// proposer of the highest ballot it has promised (§3.4), or the Ω
// estimate before any promise.
func (r *Replica) readServer(req wire.Request) (wire.NodeID, bool) {
	if req.NearSet {
		return req.Near, true
	}
	if bal := r.acc.Promised(); !bal.IsZero() {
		return bal.Node, true
	}
	return r.elector.Leader(r.now)
}

// flushConfirms sends the burst's queued confirms, one coalesced message
// per serving replica. Ballot and stamp are evaluated at send time, which
// is what makes each listed key valid per-read evidence: the message
// leaves after every listed read was received, carrying the highest
// ballot this replica has promised and the highest instance it has
// accepted as of now. Whichever replica counts the ballot as §3.4
// leadership evidence, the promise behind it must survive this
// replica's crash, or a new leader could commit writes while the old
// one still assembles read majorities from pre-crash confirms. So the
// confirms leave at once when that promise is flushed (promDurable,
// endBurst) and through the durability gate while it is only staged.
// The stamp needs no gate: it only ever raises a barrier, so an
// overshooting claim is harmless (DESIGN.md §9). The queue needs no
// cap — it holds at most one burst.
func (r *Replica) flushConfirms() {
	if len(r.confirmQ) == 0 {
		return
	}
	c := wire.Confirm{Bal: r.acc.Promised(), From: r.cfg.ID,
		MaxAcc: r.acc.MaxInstance(), MaxAccSet: true}
	direct := c.Bal.Equal(r.promDurable)
	for to, keys := range r.confirmQ {
		m := c
		m.Reads = keys
		if direct {
			r.send(to, &m)
		} else {
			r.sendDurable(to, &m)
		}
		delete(r.confirmQ, to)
	}
}

// registerRead starts serving a read: it counts this replica's own vote,
// sets the barrier to its own horizon, and folds in whatever evidence
// outran the request.
func (r *Replica) registerRead(req wire.Request) {
	key := req.Key()
	if _, dup := r.reads[key]; dup {
		return
	}
	pr := &pendingRead{
		req:     req,
		vouched: make(map[wire.NodeID]bool),
		barrier: r.acc.MaxInstance(),
		expires: r.now.Add(r.cfg.ElectionTimeout),
	}
	if r.IsActiveLeader() {
		// A leader's horizon is its commit index: it acknowledges a write
		// only once chosen (DESIGN.md §18). Its acceptor may also hold a
		// deposed leader's never-chosen suffix that recovery discarded,
		// and waiting on that would stall every read until expiry.
		pr.barrier = r.acc.Chosen()
	}
	if r.isVoter(r.cfg.ID) {
		pr.vouched[r.cfg.ID] = true
	}
	for _, c := range r.confirmBuf[key] {
		r.vouch(pr, c)
	}
	delete(r.confirmBuf, key)
	r.reads[key] = pr
	r.tryFinishRead(pr)
}

// onConfirm applies a confirm to the reads it lists. One message may
// vouch for many reads (sender-side coalescing); every key is
// independent evidence for its own read.
func (r *Replica) onConfirm(m *wire.Confirm) {
	c := heldConfirm{from: m.From, bal: m.Bal, maxAcc: m.MaxAcc, stamped: m.MaxAccSet, gen: r.bufGen}
	for _, key := range m.Reads {
		if pr, ok := r.reads[key]; ok {
			if r.vouch(pr, c) {
				r.tryFinishRead(pr)
			}
		} else if (c.stamped || c.bal.Equal(r.bal)) && len(r.confirmBuf) < 65536 {
			// The confirm can outrun the client's request; hold what
			// could still vouch once the read registers.
			r.confirmBuf[key] = append(r.confirmBuf[key], c)
		}
	}
}

// vouch applies the read rule to one piece of evidence and reports
// whether it counted. Only voters count. By ballot: this replica is the
// active leader and the sender had promised its ballot — §3.4's proof
// that no higher ballot has superseded it; the barrier stays this
// replica's own horizon, so an unstamped confirm (only an old peer
// sends one) is still useful and a stale accepted suffix at the sender
// cannot stall the read. By stamp: the sender's accepted horizon covers
// every write it had accepted before confirming, in any role and under
// any ballot; the barrier rises to it. A confirm that is neither makes no claim this
// replica can use — folding an absent stamp as "barrier zero" could
// serve below an acknowledged write.
func (r *Replica) vouch(pr *pendingRead, c heldConfirm) bool {
	switch {
	case !r.isVoter(c.from):
		return false
	case r.IsActiveLeader() && c.bal.Equal(r.bal):
	case c.stamped:
		if c.maxAcc > pr.barrier {
			pr.barrier = c.maxAcc
		}
	default:
		return false
	}
	pr.vouched[c.from] = true
	return true
}

// tryFinishRead executes a read once its gates clear — a voter quorum
// and applied state at the barrier — on the state at the commit point
// (readState), and drops it from the table: the read is then complete
// from the protocol's point of view, so a later step-down has nothing to
// answer. It runs in the worker pool (readpool.go) when one runs and its
// queue has room, else inline.
func (r *Replica) tryFinishRead(pr *pendingRead) {
	if len(pr.vouched) < r.quorum() || r.applied < pr.barrier {
		return
	}
	view := r.readState()
	if view == nil {
		return // the service refused the pin: wait for the next one
	}
	delete(r.reads, pr.req.Key())
	if !r.IsActiveLeader() {
		r.stats.readsNear.Add(1)
	}
	job := readJob{view: view, req: pr.req}
	if r.readPool != nil && r.readPool.tryDispatch(job) {
		r.stats.readsParallel.Add(1)
		return
	}
	r.stats.readsInline.Add(1)
	r.tr.Send(job.run(r.cfg.ID))
}

// readState returns the state at the commit point (DESIGN.md §18),
// which every read executes on and every wave carries: the view pinned
// before the wave in flight; else the open exclusive transaction's,
// pinned before its first op (onTxnOp) — the live state without that
// transaction's ops; else a view pinned now. Nil means the service
// refused the pin: a read waits for the next one.
func (r *Replica) readState() service.ReadView {
	switch {
	case r.wave != nil:
		return r.wave.view
	case r.exclusiveBusy():
		for _, tx := range r.txns {
			return tx.view // the only one
		}
	}
	view, _ := r.svc.ReadView()
	return view
}

// flushReads re-checks every pending read after something it waits on
// may have moved: a commit, applied state advancing on a backup, an
// exclusive transaction closing.
func (r *Replica) flushReads() {
	for _, pr := range r.reads {
		r.tryFinishRead(pr)
	}
}

// sweepReads expires reads whose quorum or barrier never materialized
// (partitioned voters, a client that went away, an accepted-but-never-
// chosen barrier instance): the client is told to retry, and its
// rebroadcast drops any Near stamp so the leader path takes over. Once
// per ElectionTimeout it also retires held confirms that have sat
// through a full period — late confirms for reads already served, or
// confirms for reads that never arrive — so neither can accrete or wear
// the buffer's cap down for the rest of the term.
func (r *Replica) sweepReads(now time.Time) {
	for key, pr := range r.reads {
		if now.After(pr.expires) {
			delete(r.reads, key)
			r.reply(pr.req, wire.StatusNotLeader, nil, "read expired")
		}
	}
	if len(r.confirmBuf) > 0 && now.Sub(r.bufSwept) > r.cfg.ElectionTimeout {
		r.bufSwept = now
		r.bufGen++
		for key, held := range r.confirmBuf {
			if held[0].gen+1 < r.bufGen {
				delete(r.confirmBuf, key)
			}
		}
	}
}
