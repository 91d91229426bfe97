// Package core implements the paper's primary contribution: a replica
// engine for nondeterministic services in asynchronous systems, built on
// Paxos (§3.3), with the X-Paxos read optimization (§3.4) and the T-Paxos
// transaction optimization (§3.5).
//
// Protocol summary
//
//   - Clients broadcast every request to all replicas; only the leader
//     replies. The leader executes each mutating request once — capturing
//     all nondeterministic choices — and then has the pair <req, state>
//     chosen by one Paxos instance. Backups never execute requests; they
//     adopt the leader's state.
//   - Instance i is proposed only after instance i−1 commits, so the
//     chosen log has no gaps. Queued requests are batched into a single
//     multi-instance accept message, the same mechanism §3.3 uses for
//     leader recovery ("one single message" covering several instances);
//     service state is attached only to the batch's highest instance.
//   - Reads (X-Paxos) skip consensus: every replica that receives a read
//     it does not serve sends a confirm — carrying the highest ballot it
//     has promised and the highest instance it has accepted — to the
//     replica that does (the leader, or the client's stamped nearest
//     replica); that replica replies once a voter majority has vouched
//     and its committed state covers the read's barrier (reads.go).
//   - Transactions (T-Paxos) execute on the leader with immediate
//     replies; a single consensus instance at commit carries the whole
//     transaction and its effect. Leader switches abort open
//     transactions (§3.6).
//
// The protocol is a set of step functions over (now, input) — DESIGN.md
// §20 — driven by one event-loop goroutine on the wall clock (driver.go)
// or, in tests, by a seeded simulator on a virtual one (sim_test.go).
package core

import (
	"log"
	"time"

	"gridrep/internal/metrics"
	"gridrep/internal/omega"
	"gridrep/internal/paxos"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// stateMode is how proposals carry service state (§3.3 discusses all
// three). It is a property of the service: New picks the cheapest mode
// that can express the service's writes and its transactions — replay
// for a serialized service.Replayer, delta for a service.Differ, full
// otherwise.
type stateMode int

const (
	// stateFull: proposals carry full post-execution snapshots (attached
	// only to the top instance of each accept wave). The paper's basic
	// protocol, and the only mode for a Service with neither capability.
	stateFull stateMode = iota
	// stateDelta: proposals carry per-instance state deltas
	// (service.Differ).
	stateDelta
	// stateReplay: proposals carry the captured nondeterministic choices;
	// replicas regenerate state by deterministic re-execution
	// (service.Replayer).
	stateReplay
)

// Role is a replica's current protocol role.
type Role int

const (
	// RoleBackup: acceptor only; ignores client requests except reads
	// (which it confirms).
	RoleBackup Role = iota
	// RolePreparing: elected by Ω, running the prepare phase (and
	// possibly catching up) before serving.
	RolePreparing
	// RoleLeading: serving client requests. The leader is fully active
	// once its recovery wave (if any) has committed.
	RoleLeading
)

func (r Role) String() string {
	switch r {
	case RoleBackup:
		return "backup"
	case RolePreparing:
		return "preparing"
	case RoleLeading:
		return "leading"
	default:
		return "role?"
	}
}

// Config assembles a replica.
type Config struct {
	// ID is this replica's node ID (must be < wire.ClientIDBase).
	ID wire.NodeID
	// Peers lists all replica IDs, including ID.
	Peers []wire.NodeID
	// Service builds the replicated application instance this replica
	// owns, and the scratch instance a service without ReadViewer reads
	// on (service.AsReadViewer).
	Service service.Factory
	// Store is the replica's stable storage. Defaults to storage.NewMem.
	Store storage.Store
	// Transport carries protocol messages. Required.
	Transport transport.Transport

	// Options are the protocol tunables (options.go), forwarded whole by
	// every layer above.
	Options

	// Join marks this replica as a joiner: it starts as a non-voting
	// learner outside the voting membership, announces itself with
	// JoinReq broadcasts, catches up (via snapshot streaming when the
	// peers' WALs are pruned), and becomes a voter only through a
	// committed configuration entry (DESIGN.md §12).
	Join bool
	// AdvertiseAddr is the transport address peers should use to reach
	// this replica, carried in JoinReq so existing members can extend
	// their address books. Empty on transports that route by ID alone.
	AdvertiseAddr string

	// Logger, if set, receives role transitions and anomalies.
	Logger *log.Logger
}

func (c *Config) fillDefaults() {
	if c.Store == nil {
		c.Store = storage.NewMem()
	}
	c.Options.FillDefaults(0)
}

// wave is the in-flight multi-instance accept (§3.3: several instances,
// one message; state attached to the top instance only). At most one is
// in flight: the next launches only after it commits (DESIGN.md §10).
type wave struct {
	round    *paxos.AcceptRound
	entries  []wire.Entry
	recovery bool        // re-proposing learned entries after election
	txns     []*txnState // transactions committing in this wave
	// view is the state before this wave executed: the state at the
	// commit point while the wave is in flight (reads.go). Nil if the
	// pin was refused.
	view    service.ReadView
	sentAt  time.Time
	firstAt time.Time // admission time of the wave's oldest request
	// exec is the execution time (execLat) the launching step spent
	// before the accept left; the quorum and commit phases start after it.
	exec time.Duration
}

// cachedReply supports at-most-once execution per client.
type cachedReply struct {
	seq    uint64
	result []byte
	status wire.ReplyStatus
}

// Replica is one service process of the replicated nondeterministic
// service.
type Replica struct {
	driver // the wall-clock event loop and its channels (driver.go)

	// now is the time of the step being run — the only clock protocol
	// code reads. Every entry point sets it (DESIGN.md §20).
	now      time.Time
	nextTick time.Time // when the periodic tick is next due
	failed   bool      // a fatal local fault: the replica takes no further steps

	cfg      Config
	tr       transport.Transport
	acc      *paxos.Acceptor
	elector  *omega.Elector
	svc      service.ReadViewer    // a bare Service in service.AsReadViewer's adapter
	native   service.Transactional // nil: the replica serializes transactions (txn.go)
	mode     stateMode
	differ   service.Differ   // non-nil in delta mode
	replayer service.Replayer // non-nil in replay mode

	// readPool, started by Start when there is more than one processor,
	// runs reads off-loop on views svc pins (reads.go).
	readPool *readPool

	role      Role
	activated bool // leading and done with recovery
	bal       wire.Ballot
	maxSeen   wire.Ballot // highest ballot observed anywhere

	prep         *paxos.PrepareRound
	prepSentAt   time.Time
	prepBackoff  time.Time
	awaitCatchup bool
	lagAt        uint64    // the catch-up gap (backup.go): applied when first seen,
	lagSince     time.Time // when it was first seen or last asked about,
	lagAsks      int       // and how many peers have been asked

	queue        []workItem
	wave         *wave // the accept wave in flight, if any
	nextInstance uint64
	applied      uint64 // instance whose post-state the service reflects

	// Membership (reconfig.go): voters vote and form quorums; learners
	// receive all broadcasts but their votes are ignored and Ω never
	// entitles them to lead. others caches voters ∪ learners minus
	// self, the broadcast set. membersAt is the instance that decided
	// the current configuration (0 = static boot config).
	voters    []wire.NodeID
	learners  []wire.NodeID
	others    []wire.NodeID
	membersAt uint64
	// pendingConfig refuses further membership proposals from when one
	// is accepted until its entry commits: changes are one-at-a-time, and
	// the quorum switches at the commit point. configProp holds the
	// accepted proposal until the client wave in flight commits and it
	// can launch as its own wave.
	pendingConfig bool
	configProp    *wire.Proposal
	joining       bool // announcing via JoinReq until promoted to voter
	joinSentAt    time.Time
	peerAddrs     map[wire.NodeID]string // advertised transport addresses
	peerApplied   map[wire.NodeID]uint64 // gossiped applied watermarks
	snapFetch     *snapFetch             // in-progress snapshot stream (requester)
	snapSumAt     uint64                 // served-snapshot CRC cache (responder)
	snapSumVal    uint32

	// hintChosen records a commit index claimed by a peer (heartbeat, or
	// a Commit whose entries this replica cannot locally validate); the
	// tick loop turns it into a catch-up request. The local commit index
	// only ever advances over entries held at the committing ballot — or
	// through the authoritative catch-up Install — so a stale accepted
	// entry can never be applied just because the index moved past it.
	hintChosen uint64

	stats stats             // cross-goroutine counters (stats.go)
	reg   *metrics.Registry // all layers' instruments (DESIGN.md §11)

	// flushAt is set when a wave committed but no broadcast has told
	// the backups yet; the next accept wave carries it for free (and
	// clears it), else the tick at flushAt sends a standalone Commit.
	flushAt time.Time

	// The read path (reads.go): reads holds the reads this replica is
	// serving, confirmBuf the confirms that outran their read (swept by
	// generation: bufGen advances once per ElectionTimeout, at bufSwept),
	// and confirmQ the burst's outgoing confirm keys per serving replica.
	reads      map[wire.Key]*pendingRead
	confirmBuf map[wire.Key][]heldConfirm
	bufGen     uint64
	bufSwept   time.Time
	confirmQ   map[wire.NodeID][]wire.Key
	deferred   []wire.Request // requests received while preparing

	// lastCost is the placement cost last handed to the elector;
	// updatePlacementCost applies hysteresis against it so EWMA noise on
	// the RTT estimates cannot flap the gossiped rank.
	lastCost    uint32
	lastCostSet bool

	txns    map[txnKey]*txnState
	blocked []wire.Request // work blocked behind an exclusive transaction

	lastReply map[wire.NodeID]cachedReply
	pending   map[wire.Key]bool // queued or in-flight mutating requests

	// base is the service state captured in New while the store held no
	// durable snapshot: the state before instance 1, where rederive starts
	// until a durable snapshot exists.
	base []byte

	// Durability (persist.go): non-nil flusher means the store stages
	// records and a driver flushes them. deferEnvs and deferFns
	// accumulate one burst's post-durability work; awaiting holds the
	// closures of the wake jobs endBurst handed out, oldest first, until
	// the driver reports them durable.
	flusher   storage.Flusher
	deferEnvs []*wire.Envelope
	deferFns  []func()
	awaiting  [][]func()
	// promStaged is the highest promise a durability closure was
	// registered for, promDurable the highest the store has flushed
	// (endBurst); a confirm carrying promDurable needs no gate.
	promStaged, promDurable wire.Ballot
}

// peerHealth is a transport-level link transition for one peer, reported
// by transports implementing transport.HealthReporter.
type peerHealth struct {
	peer wire.NodeID
	up   bool
}

// workItem is one unit of wave work: a plain write, or a transaction
// commit carrying its accumulated state. at is the admission time, the
// start of the request-latency phase measurement.
type workItem struct {
	req wire.Request
	txn *txnState
	at  time.Time
}

// New assembles a replica. Call Start to launch its event loop.
func New(cfg Config) (*Replica, error) {
	cfg.fillDefaults()
	acc, err := paxos.NewAcceptor(cfg.Store)
	if err != nil {
		return nil, err
	}
	// The capabilities are the live instance's own, never the read
	// adapter's. Not natively transactional means exclusive: one
	// transaction at a time, its ops run on the live state (txn.go).
	live := cfg.Service()
	native, _ := live.(service.Transactional)
	replayer, isReplayer := live.(service.Replayer)
	differ, isDiffer := live.(service.Differ)
	// A mode must express writes and T-Paxos commits: replay needs the
	// transaction's ops run on the base state through the Replayer (a
	// serialized service), delta a commit that yields its write set.
	mode := stateFull
	switch {
	case isReplayer && native == nil:
		mode, differ = stateReplay, nil
	case isDiffer:
		mode, replayer = stateDelta, nil
	default:
		differ, replayer = nil, nil
	}
	r := &Replica{
		cfg:    cfg,
		tr:     cfg.Transport,
		acc:    acc,
		svc:    service.AsReadViewer(live, cfg.Service),
		native: native,
		mode:   mode,
		elector: omega.New(omega.Config{
			Self:     cfg.ID,
			Peers:    cfg.Peers,
			Interval: cfg.HeartbeatInterval,
			Timeout:  cfg.ElectionTimeout,
			// Preemption is opt-in: only a deployment that expresses a
			// placement preference (RTT cost) wants leadership to move
			// toward it; everyone else keeps the stability-first
			// behaviour pinned by the omega tests.
			Preempt: cfg.RTTPlacement,
		}),
		reads:       make(map[wire.Key]*pendingRead),
		confirmBuf:  make(map[wire.Key][]heldConfirm),
		confirmQ:    make(map[wire.NodeID][]wire.Key),
		txns:        make(map[txnKey]*txnState),
		lastReply:   make(map[wire.NodeID]cachedReply),
		pending:     make(map[wire.Key]bool),
		peerAddrs:   make(map[wire.NodeID]string),
		peerApplied: make(map[wire.NodeID]uint64),
	}
	r.initDriver()
	// One registry per replica covers every layer: the core instruments
	// plus whatever the store and transport publish (they self-register
	// when they implement metrics.Instrumented, the same probe pattern as
	// storage.Flusher and transport.HealthReporter below).
	r.reg = metrics.NewRegistry()
	r.stats.register(r.reg)
	if ins, ok := cfg.Store.(metrics.Instrumented); ok {
		ins.RegisterMetrics(r.reg)
	}
	if ins, ok := cfg.Transport.(metrics.Instrumented); ok {
		ins.RegisterMetrics(r.reg)
	}
	if fl, ok := cfg.Store.(storage.Flusher); ok {
		// The store supports group commit: stage mutations in the step,
		// let the driver flush them, and route dependent sends through
		// the flush (persist.go has the ordering contract). A store that
		// is not a Flusher takes the inline path: every mutation is
		// durable when its call returns.
		fl.SetBuffered(true)
		r.flusher = fl
	}
	r.differ, r.replayer = differ, replayer
	r.maxSeen = acc.Promised()
	r.promStaged, r.promDurable = r.maxSeen, r.maxSeen // loaded: on disk
	r.nextInstance = acc.Chosen() + 1
	// Seed the participant set before replay: boot replay below may walk
	// configuration entries, each of which switches membership in
	// commit order on top of this base.
	r.initMembership()
	// A recovering replica first rebuilds its service from its own durable
	// snapshot and log; without this, a full-cluster restart would deadlock
	// with every replica waiting for an up-to-date peer to catch up from.
	// Whatever the local log cannot reconstruct (a missed suffix) is
	// fetched from peers later.
	if _, at := acc.ServiceSnapshot(); at == 0 {
		r.base = r.svc.Snapshot()
	}
	r.rederive()
	return r, nil
}

// ID returns the replica's node ID.
func (r *Replica) ID() wire.NodeID { return r.cfg.ID }

// Options returns the tunables the replica runs with, defaults filled.
// Safe from any goroutine: they never change after New.
func (r *Replica) Options() Options { return r.cfg.Options }

// Accessors for Inspect closures (event-loop confined).

// IsActiveLeader reports whether the replica is serving requests (call
// inside Inspect).
func (r *Replica) IsActiveLeader() bool { return r.role == RoleLeading && r.activated }

// Chosen returns the commit index (call inside Inspect).
func (r *Replica) Chosen() uint64 { return r.acc.Chosen() }

// Applied returns the instance whose state the service reflects (call
// inside Inspect).
func (r *Replica) Applied() uint64 { return r.applied }

// Ballot returns the replica's current leadership ballot (call inside
// Inspect).
func (r *Replica) Ballot() wire.Ballot { return r.bal }

// Service returns the replica's service instance (call inside Inspect).
func (r *Replica) Service() service.Service { return r.svc }

// Elector returns the Ω elector (call inside Inspect; tests use Suspect
// to force leader switches).
func (r *Replica) Elector() *omega.Elector { return r.elector }

func (r *Replica) logf(format string, args ...interface{}) {
	if r.cfg.Logger != nil {
		r.cfg.Logger.Printf("replica %v [%v]: "+format,
			append([]interface{}{r.cfg.ID, r.role}, args...)...)
	}
}

// quorum is a majority of the *current voting* configuration; it
// switches the moment a configuration entry commits (reconfig.go).
func (r *Replica) quorum() int { return paxos.Quorum(len(r.voters)) }

// othersDo sends msg to every current member — voters and learners —
// except self. Learners receive everything (that is how they catch up)
// but their votes are discarded.
func (r *Replica) othersDo(msg wire.Message) { transport.Broadcast(r.tr, r.others, msg) }

func (r *Replica) send(to wire.NodeID, msg wire.Message) {
	r.tr.Send(&wire.Envelope{To: to, Msg: msg})
}

// The step entry points (DESIGN.md §20). Each takes the time its input
// happened; below them nothing starts a goroutine, touches a channel or
// a timer, or reads the wall clock.

// enter begins a step at now and shows its input to the record seam.
func (r *Replica) enter(now time.Time, in any) {
	r.now = now
	if r.record != nil {
		r.record(now, in)
	}
}

// deadline is when the core next needs a tick: the earlier of the
// periodic tick and a pending commit flush.
func (r *Replica) deadline() time.Time {
	if !r.flushAt.IsZero() && r.flushAt.Before(r.nextTick) {
		return r.flushAt
	}
	return r.nextTick
}

// durable is the step for persist completions: the oldest n jobs endBurst
// handed out with closures (wake) are durable, so those run, in order.
func (r *Replica) durable(now time.Time, n int) {
	r.enter(now, n)
	for ; n > 0 && len(r.awaiting) > 0; n-- {
		fns := r.awaiting[0]
		r.awaiting = r.awaiting[1:]
		for _, fn := range fns {
			fn()
		}
	}
}

// control is the step that runs an Inspect closure.
func (r *Replica) control(now time.Time, f func(*Replica)) {
	r.enter(now, f)
	f(r)
}

// endBurst closes a burst of steps: it notes a promise the burst staged,
// sends the burst's coalesced confirms, re-checks pending reads, and
// hands back one persist job — the deferred sends plus any staged
// records, which still need a flush — keeping the deferred closures
// until durable reports the job done.
func (r *Replica) endBurst() (persistJob, bool) {
	r.enter(r.now, burstInput{})
	if p := r.acc.Promised(); !p.Equal(r.promStaged) {
		// The promise changed in this burst: it is durable once the
		// flush covering this job returns. Closures run in order and a
		// promise only rises, so promDurable only rises.
		r.promStaged = p
		r.deferLoop(func() { r.promDurable = p })
	}
	r.flushConfirms()
	r.flushReads()
	if r.flusher == nil || !r.flusher.Staged() && len(r.deferEnvs) == 0 && len(r.deferFns) == 0 {
		return persistJob{}, false
	}
	job := persistJob{envs: r.deferEnvs, wake: len(r.deferFns) > 0}
	if job.wake {
		r.awaiting = append(r.awaiting, r.deferFns)
	}
	r.deferEnvs, r.deferFns = nil, nil
	return job, true
}

// sendDurable routes a message that claims durable acceptor state — a
// Promise, an Accepted, a Confirm whose promise is still staged
// (flushConfirms) — into the burst's persist job, so it leaves only
// after the staged records backing the claim are flushed. Without a
// flusher the inline store already made them durable; send now.
func (r *Replica) sendDurable(to wire.NodeID, msg wire.Message) {
	if r.flusher != nil {
		r.deferEnvs = append(r.deferEnvs, &wire.Envelope{To: to, Msg: msg})
		return
	}
	r.send(to, msg)
}

// deferLoop schedules fn to run in a later step, once every record
// staged so far is durable; without a flusher it runs immediately. The
// leader's own quorum votes go through here.
func (r *Replica) deferLoop(fn func()) {
	if r.flusher != nil {
		r.deferFns = append(r.deferFns, fn)
		return
	}
	fn()
}

// deliver is the step for one received envelope.
func (r *Replica) deliver(now time.Time, env *wire.Envelope) {
	r.enter(now, env)
	if !env.From.IsClient() {
		// Any message from a peer replica is liveness evidence; without
		// this, heartbeats queued behind bulk traffic cause spurious
		// leader suspicion under load.
		r.elector.Observe(env.From, r.now)
	}
	switch m := env.Msg.(type) {
	case *wire.RequestMsg:
		r.onRequest(m.Req)
	case *wire.Prepare:
		r.onPrepare(env.From, m)
	case *wire.Promise:
		r.onPromise(env.From, m)
	case *wire.Accept:
		r.onAccept(env.From, m)
	case *wire.Accepted:
		r.onAccepted(env.From, m)
	case *wire.Commit: // a prefix of instances is chosen
		if r.role == RoleBackup {
			r.advanceChosen(m.Index, m.Bal)
		}
	case *wire.Confirm:
		r.onConfirm(m)
	case *wire.Heartbeat:
		r.elector.OnHeartbeat(m, r.now)
		r.notePeerApplied(m.From, m.Applied)
		if r.role == RoleBackup && m.Chosen > r.acc.Chosen() && m.Chosen > r.hintChosen {
			// Heartbeats carry no ballot, so the claim cannot be
			// validated against local entries; record it and let the
			// tick loop catch up from a peer instead of advancing over
			// possibly-stale accepted entries.
			r.hintChosen = m.Chosen
		}
	case *wire.CatchUpReq:
		r.onCatchUpReq(m)
	case *wire.CatchUpResp:
		r.onCatchUpResp(m)
	case *wire.JoinReq:
		r.onJoinReq(m)
	case *wire.SnapReq:
		r.onSnapReq(m)
	case *wire.SnapChunk:
		r.onSnapChunk(m)
	}
}

// onPeerHealth is the step for a transport link transition, applied to
// the Ω elector. A dead socket revokes the peer's liveness credit
// immediately — if that peer led, an election starts now instead of
// after the heartbeat timeout — while a reconnect merely counts as
// liveness evidence.
func (r *Replica) onPeerHealth(now time.Time, ph peerHealth) {
	r.enter(now, ph)
	if ph.up {
		r.elector.PeerUp(ph.peer, now)
		return
	}
	r.logf("transport: link to %v down", ph.peer)
	r.elector.PeerDown(ph.peer, now)
}

// tick is the timer step. A due commit flush goes out — the queue
// drained with no follow-on wave to piggyback the commit, so the backups
// must hear about the chosen instances now — and, on a cadence of half a
// heartbeat, the periodic work: heartbeats, leadership transitions,
// expiries and retransmissions. Called before deadline() it does nothing.
func (r *Replica) tick(now time.Time) {
	r.enter(now, tickInput{})
	if !r.flushAt.IsZero() && !now.Before(r.flushAt) {
		r.flushAt = time.Time{}
		if r.role == RoleLeading {
			r.othersDo(&wire.Commit{Bal: r.bal, Index: r.acc.Chosen()})
		}
	}
	if now.Before(r.nextTick) {
		return
	}
	every := max(r.cfg.HeartbeatInterval/2, time.Millisecond)
	if r.nextTick = r.nextTick.Add(every); !r.nextTick.After(now) {
		r.nextTick = now.Add(every)
	}
	if r.cfg.RTTPlacement {
		r.updatePlacementCost()
	}
	r.sweepReads(now)
	if hb := r.elector.Tick(now); hb != nil {
		hb.Chosen = r.acc.Chosen()
		hb.Applied = r.applied // gossip the applied watermark (prune driver)
		r.othersDo(hb)
	}
	r.tickJoin(now)
	r.maybeSnapshot(r.cfg.SnapshotEvery)
	r.maybePrune()
	leader, ok := r.elector.Leader(now)
	switch {
	case ok && leader == r.cfg.ID && r.role == RoleBackup:
		// Not mid-snapshot-stream: the suffix a prepare would ask for is gone.
		if now.After(r.prepBackoff) && r.snapFetch == nil {
			r.startPrepare(now)
		}
	case (!ok || leader != r.cfg.ID) && r.role != RoleBackup:
		r.logf("deposed by Ω (leader=%v ok=%v)", leader, ok)
		r.stepDown()
	}

	// Retransmissions: the asynchronous model makes the protocol layer
	// responsible for all reliability (§3.3: "If the leader fails to
	// receive the expected response ... it retransmits those messages").
	switch r.role {
	case RolePreparing:
		if r.awaitCatchup {
			r.tickCatchup(now)
		} else if now.Sub(r.prepSentAt) > r.cfg.RetryTimeout {
			r.prepSentAt = now
			r.othersDo(&wire.Prepare{Bal: r.bal, After: r.acc.Chosen()})
		}
	case RoleLeading:
		r.maybePromote()
		if w := r.wave; w != nil && now.Sub(w.sentAt) > r.cfg.RetryTimeout {
			w.sentAt, w.exec = now, 0
			r.othersDo(&wire.Accept{Bal: r.bal, Entries: w.entries, Commit: r.acc.Chosen()})
		}
	case RoleBackup:
		// A backup whose applied state trails the commit index is
		// missing entries (or their state), and one whose commit index
		// trails a peer's claim could not validate the claimed prefix
		// locally; either way, fetch the suffix if the gap stays open
		// and no snapshot stream is in progress.
		if r.snapFetch != nil {
			r.tickFetch(now)
		} else if r.acc.Chosen() > r.applied || r.hintChosen > r.acc.Chosen() {
			r.tickCatchup(now)
		}
	}
}

// placementCostUnknown is the wire sentinel (0, matching the
// Heartbeat.Cost default gossiped by replicas that never measure) for a
// replica with no RTT estimates; the elector maps it behind every
// measured cost (omega.costUnknown). At boot all replicas share it
// (cost ties degenerate to the base rank), a freshly restarted replica
// cannot out-rank warmed incumbents just because its estimator is
// empty, and a replica running with RTTPlacement disabled can never
// out-rank the replicas that measure.
const placementCostUnknown uint32 = 0

// updatePlacementCost smooths the transport's per-peer RTT estimates
// into one placement cost and hands it to the elector, which gossips it
// on heartbeats and folds it in front of the base rank (lowest
// aggregate RTT leads). Quantized to 1ms buckets, offset by one so a
// genuine sub-millisecond measurement never collides with the unknown
// sentinel, with 2ms hysteresis between measured values: placement only
// cares about differences of tens of milliseconds, and the hysteresis
// keeps EWMA noise from flapping the cluster-wide rank order. The
// known/unknown transition always propagates — holding it back would
// leave a newly warmed replica ranked last forever.
func (r *Replica) updatePlacementCost() {
	rr, ok := r.tr.(transport.RTTReporter)
	if !ok {
		return
	}
	var sum time.Duration
	n := 0
	for _, p := range r.others {
		if d, ok := rr.PeerRTT(p); ok {
			sum += d
			n++
		}
	}
	cost := placementCostUnknown
	if n > 0 {
		bucket := uint64(sum/time.Duration(n)/time.Millisecond) + 1
		if bucket > uint64(^uint32(0)) {
			bucket = uint64(^uint32(0))
		}
		cost = uint32(bucket)
	}
	if r.lastCostSet && cost != placementCostUnknown && r.lastCost != placementCostUnknown {
		diff := int64(cost) - int64(r.lastCost)
		if diff > -2 && diff < 2 {
			return
		}
	}
	r.lastCost, r.lastCostSet = cost, true
	r.elector.SetCost(cost)
}

// startPrepare begins the prepare phase for a fresh ballot (§3.2).
func (r *Replica) startPrepare(now time.Time) {
	cur := r.maxSeen
	if cur.Less(r.acc.Promised()) {
		cur = r.acc.Promised()
	}
	if cur.Less(r.bal) {
		cur = r.bal
	}
	r.bal = paxos.NextBallot(cur, r.cfg.ID)
	r.maxSeen = r.bal
	r.role = RolePreparing
	r.activated = false
	r.awaitCatchup = false
	r.prep = paxos.NewPrepareRound(r.bal, r.quorum())
	r.prepSentAt = now
	r.logf("prepare %v after=%d", r.bal, r.acc.Chosen())

	// Self-promise first, then one message to everyone else (§3.3). The
	// broadcast claims nothing about local durable state and goes out
	// immediately; the self-vote counts toward the quorum only once the
	// staged promise record is flushed (deferLoop), guarded against the
	// round having moved on by the time the closure runs.
	p, err := r.acc.OnPrepare(&wire.Prepare{Bal: r.bal, After: r.acc.Chosen()})
	if err != nil {
		r.fatal("self-prepare: %v", err)
		return
	}
	r.othersDo(&wire.Prepare{Bal: r.bal, After: r.acc.Chosen()})
	prep := r.prep
	r.deferLoop(func() {
		if r.prep != prep || r.role != RolePreparing {
			return
		}
		if done, _ := prep.Add(p, r.cfg.ID); done {
			r.onPrepared()
		}
	})
}

// stepDown returns to the backup role, discarding every speculative
// effect: the in-flight wave's execution, open transactions, and pending
// reads.
func (r *Replica) stepDown() {
	wasLeading := r.role != RoleBackup
	r.role = RoleBackup
	r.activated = false
	r.prep = nil
	r.awaitCatchup = false
	if !wasLeading {
		return
	}
	// Abort open transactions (§3.6: "if the leader switches during the
	// transaction ... the transaction has to be aborted"). An exclusive
	// one ran on the live state, which the re-derivation below discards.
	exclusive := r.exclusiveBusy()
	for _, tx := range r.txns {
		if tx.ws != nil {
			tx.ws.Abort()
		}
	}
	r.txns = make(map[txnKey]*txnState)
	// The service ran ahead of applied by the in-flight wave's execution
	// (a recovery wave executes nothing) and an exclusive transaction's
	// ops: rebuild it from the chosen log, which discards both.
	rollback := r.wave != nil && !r.wave.recovery
	if rollback || exclusive {
		r.rederive()
		r.logf("re-derived past speculative effects to applied=%d", r.applied)
	}
	if rollback {
		r.stats.wavesRolledBack.Add(1)
	}
	r.wave = nil
	r.stats.wavesInFlight.Set(0)
	// Tell waiting clients to retry elsewhere. Every pending read goes,
	// however it was being vouched: evidence counted by ballot dies with
	// the ballot, and a near read caught here costs its client one
	// rebroadcast, exactly like an expired one.
	for _, pr := range r.reads {
		r.reply(pr.req, wire.StatusNotLeader, nil, "leader switch")
	}
	r.reads = make(map[wire.Key]*pendingRead)
	for _, it := range r.queue {
		r.reply(it.req, wire.StatusNotLeader, nil, "leader switch")
	}
	for _, req := range r.blocked {
		r.reply(req, wire.StatusNotLeader, nil, "leader switch")
	}
	for _, req := range r.deferred {
		r.reply(req, wire.StatusNotLeader, nil, "leader switch")
	}
	r.queue, r.blocked, r.deferred = nil, nil, nil
	r.pending = make(map[wire.Key]bool)
	r.confirmBuf = make(map[wire.Key][]heldConfirm)
	// Any unflushed commit is moot: backups will learn the commit index
	// from the next leader's traffic or from heartbeats. An uncommitted
	// configuration proposal dies with the ballot; the next leader's
	// recovery either re-proposes or discards it, and one still waiting
	// to launch is simply dropped.
	r.flushAt = time.Time{}
	r.pendingConfig, r.configProp = false, nil
	r.nextInstance = r.acc.Chosen() + 1
	r.logf("stepped down at chosen=%d", r.acc.Chosen())
}

// rederive rebuilds the service from local durable state: the durable
// snapshot (or, while none exists, the state New captured), then every
// chosen effect above it through applyCommitted — how a replica boots, how
// a demoted leader gets back to the chosen state (§3.6), and how an
// exclusive transaction aborts (txn.go). The log holds
// every such effect because Compact strips only what a snapshot covers.
func (r *Replica) rederive() {
	snap, at := r.acc.ServiceSnapshot()
	if at == 0 {
		snap = r.base
	}
	if err := r.svc.Restore(snap); err != nil {
		r.fatal("restore at %d: %v", at, err)
		return
	}
	r.applied = at
	r.applyCommitted(r.acc.Chosen())
}

// fatal reports an unrecoverable local fault (storage failure). The
// replica stops participating, which the protocol tolerates as a crash:
// its driver takes no further step once this one returns.
func (r *Replica) fatal(format string, args ...interface{}) {
	r.logf("FATAL: "+format, args...)
	r.failed = true
}

func (r *Replica) reply(req wire.Request, status wire.ReplyStatus, result []byte, errStr string) {
	r.send(req.Client, &wire.ReplyMsg{Rep: wire.Reply{
		Client: req.Client,
		Seq:    req.Seq,
		Status: status,
		Leader: r.cfg.ID,
		Result: result,
		Err:    errStr,
	}})
}
