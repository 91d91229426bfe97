package core

import (
	"time"

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
// and the sender had promised R's own ballot: B stays R's proposal
// horizon) or by stamp (the sender's accepted horizon MaxAcc: B rises to
// it, valid in any role); anything else is ignored. Where a gate-cleared
// read executes — worker pool or event loop — is independent of how it
// was vouched.

// pendingRead is a read this replica serves, waiting for its voter
// quorum and for the applied state to reach its barrier. Once both hold
// the read executes; under pipelining the service state it observed may
// still be speculative, so the reply is held until the newest instance
// proposed at execution time (execTop) commits.
type pendingRead struct {
	req      wire.Request
	vouched  map[wire.NodeID]bool // voters counted, self included when it votes
	barrier  uint64               // instance the applied state must cover
	expires  time.Time
	executed bool
	execTop  uint64 // newest proposed instance at execution time
	status   wire.ReplyStatus
	result   []byte
	errStr   string
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
// accepted as of now. Every confirm goes through the durability gate:
// whichever replica counts its ballot as §3.4 leadership evidence, the
// promise behind that ballot must survive this replica's crash, or a new
// leader could commit writes while the old one still assembles read
// majorities from pre-crash confirms. (The stamp alone would not need
// the gate: it only ever raises a barrier, so an overshooting claim is
// harmless.) The queue needs no cap — it holds at most one burst.
func (r *Replica) flushConfirms() {
	if len(r.confirmQ) == 0 {
		return
	}
	c := wire.Confirm{Bal: r.acc.Promised(), From: r.cfg.ID,
		MaxAcc: r.acc.MaxInstance(), MaxAccSet: true}
	for to, keys := range r.confirmQ {
		m := c
		m.Reads = keys
		r.sendDurable(to, &m)
		delete(r.confirmQ, to)
	}
}

// registerRead starts serving a read: it counts this replica's own vote,
// sets the barrier to its own horizon, and folds in whatever evidence
// outran the request.
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
		req:     req,
		vouched: make(map[wire.NodeID]bool),
		barrier: r.acc.MaxInstance(),
		expires: r.now.Add(r.cfg.ElectionTimeout),
	}
	if r.IsActiveLeader() {
		// A leader's horizon is what it has proposed (or recovered): its
		// acceptor may still hold a deposed leader's never-chosen suffix
		// that recovery discarded, and waiting on that would stall every
		// read until expiry.
		pr.barrier = r.nextInstance - 1
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

// tryFinishRead advances one read through its gates and picks where it
// executes. The gates: a voter quorum, applied state at the barrier, and
// no exclusive transaction open (its uncommitted effects sit in the live
// state). A gate-cleared read goes to the worker pool (readpool.go) when
// no speculative wave is in flight — with waves outstanding the live
// state leads the commit index, and a view pinned now would expose
// uncommitted effects — and the service agrees to pin a view; on
// dispatch the read is complete from the protocol's point of view, so it
// leaves the table now and a later step-down has nothing to answer.
// Otherwise, or when the pool queue is full, it executes inline and the
// reply is held until everything proposed up to the execution point has
// committed. If those waves roll back instead, the replica steps down
// and the held read is answered NotLeader — the speculative result is
// never exposed. Off the leader, and at PipelineDepth 1, the execution
// point never leads the commit index, so the reply leaves immediately.
func (r *Replica) tryFinishRead(pr *pendingRead) {
	key := pr.req.Key()
	if !pr.executed {
		if len(pr.vouched) < r.quorum() || r.applied < pr.barrier || r.exclusiveBusy() {
			return
		}
		if !r.IsActiveLeader() {
			r.stats.readsNear.Add(1)
		}
		if r.readPool != nil && len(r.waves) == 0 {
			if view, ok := r.viewer.ReadView(); ok && r.readPool.tryDispatch(readJob{view: view, req: pr.req}) {
				delete(r.reads, key)
				r.stats.readsParallel.Add(1)
				return
			}
		}
		pr.executed = true
		r.stats.readsInline.Add(1)
		pr.execTop = r.nextInstance - 1
		res, err := r.svc.Execute(pr.req.Op)
		pr.status, pr.result = wire.StatusOK, res
		if err != nil {
			pr.status, pr.result, pr.errStr = wire.StatusError, nil, err.Error()
		}
	}
	if r.acc.Chosen() < pr.execTop {
		return // result reflects speculative state; wait for its commit
	}
	delete(r.reads, key)
	r.reply(pr.req, pr.status, pr.result, pr.errStr)
}

// flushReads re-checks every pending read after something its gates
// depend on may have moved: a commit, applied state advancing on a
// backup, an exclusive transaction closing.
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
