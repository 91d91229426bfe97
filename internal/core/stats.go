package core

import (
	"sync/atomic"

	"gridrep/internal/metrics"
	"gridrep/internal/wire"
)

// stats holds the replica counters that are read outside the event loop
// (replicad -stats, the metrics endpoint, benchmarks, tests). The event
// loop is the only writer; the metrics instruments are atomics, so
// snapshots are race-free without handing readers a ticket onto the
// loop. Every instrument registers into the replica's metrics.Registry
// (DESIGN.md §11), the one surface they are read through.
type stats struct {
	deferredDrops     metrics.Counter
	specRollbacks     metrics.Counter
	wavesRolledBack   metrics.Counter
	recoveryDiscarded metrics.Counter
	wavesStarted      metrics.Counter
	wavesCommitted    metrics.Counter
	wavesInFlight     metrics.Gauge
	maxWavesInFlight  metrics.Gauge

	// Where each served read executed (DESIGN.md "Reads"): parallel
	// counts reads dispatched to the worker pool, inline counts reads
	// executed on the event loop (pool absent, a speculative wave in
	// flight, view pin refused, or pool queue full). readsNear counts,
	// independently of where they ran, the reads this replica served
	// while not the active leader — as the client's nearest replica.
	readsParallel metrics.Counter
	readsInline   metrics.Counter
	readsNear     metrics.Counter

	// Reconfiguration instruments (DESIGN.md §12): snapshot catch-up
	// traffic on both sides, durable snapshot saves, WAL prune
	// activity, and committed configuration changes.
	snapSaves        metrics.Counter
	catchupChunksOut metrics.Counter
	catchupChunksIn  metrics.Counter
	catchupBytes     metrics.Counter
	catchupInstalls  metrics.Counter
	pruneRuns        metrics.Counter
	pruneEntries     metrics.Counter
	configCommits    metrics.Counter

	// Health mirrors: loop-confined protocol state (role, ballot, commit
	// and applied indexes) copied into atomics once per loop iteration,
	// so /healthz and the gauges below never need the event loop.
	role        atomic.Int32
	ballotRound atomic.Uint64
	ballotNode  atomic.Uint32
	chosen      atomic.Uint64
	applied     atomic.Uint64
	snapAt      atomic.Uint64
	prunedTo    atomic.Uint64
	membersView atomic.Value // *membersView, refreshed on membership change

	// Per-phase latency histograms stamped through the leader hot path
	// (DESIGN.md §11): execute is the service execution of one wave's
	// batch; quorum is accept-broadcast to quorum completion; commit is
	// accept-broadcast to commitment (the same span: a wave commits the
	// moment its quorum completes); request is client-admission to reply,
	// the leader-side component of what clients observe.
	execLat    *metrics.Histogram
	quorumLat  *metrics.Histogram
	commitLat  *metrics.Histogram
	requestLat *metrics.Histogram
	catchupLat *metrics.Histogram
}

// membersView is the cross-goroutine snapshot of the participant set.
type membersView struct {
	members  []wire.NodeID
	learners []wire.NodeID
}

// register publishes the replica's instruments into reg and creates the
// phase histograms.
func (s *stats) register(reg *metrics.Registry) {
	reg.RegisterCounter("gridrep_waves_started_total",
		"accept waves launched while leading", &s.wavesStarted)
	reg.RegisterCounter("gridrep_waves_committed_total",
		"accept waves committed while leading", &s.wavesCommitted)
	reg.RegisterGauge("gridrep_waves_in_flight",
		"speculative accept waves currently outstanding", &s.wavesInFlight)
	reg.RegisterGauge("gridrep_waves_in_flight_max",
		"high-water mark of outstanding accept waves", &s.maxWavesInFlight)
	reg.RegisterCounter("gridrep_spec_rollbacks_total",
		"ballot demotions that re-derived the service past speculative waves", &s.specRollbacks)
	reg.RegisterCounter("gridrep_waves_rolled_back_total",
		"speculative waves discarded by re-derivations", &s.wavesRolledBack)
	reg.RegisterCounter("gridrep_recovery_discarded_total",
		"learned entries discarded during prepare-phase recovery", &s.recoveryDiscarded)
	reg.RegisterCounter("gridrep_deferred_drops_total",
		"client requests dropped from the full prepare-phase deferral buffer", &s.deferredDrops)
	reg.RegisterCounter("gridrep_reads_parallel_total",
		"X-Paxos reads executed on the parallel worker pool", &s.readsParallel)
	reg.RegisterCounter("gridrep_reads_inline_total",
		"X-Paxos reads executed inline on the event loop", &s.readsInline)
	reg.RegisterCounter("gridrep_reads_near_total",
		"X-Paxos reads served as the client's nearest replica", &s.readsNear)
	reg.RegisterGaugeFunc("gridrep_role",
		"replica role (0 backup, 1 preparing, 2 leading)",
		func() int64 { return int64(s.role.Load()) })
	reg.RegisterGaugeFunc("gridrep_ballot_round",
		"current leadership ballot round",
		func() int64 { return int64(s.ballotRound.Load()) })
	reg.RegisterGaugeFunc("gridrep_commit_index",
		"highest chosen (committed) instance",
		func() int64 { return int64(s.chosen.Load()) })
	reg.RegisterGaugeFunc("gridrep_applied_index",
		"instance whose post-state the service reflects",
		func() int64 { return int64(s.applied.Load()) })
	reg.RegisterCounter("gridrep_snapshot_saves_total",
		"durable service snapshots written (prune/catch-up anchors)", &s.snapSaves)
	reg.RegisterCounter("gridrep_catchup_chunks_sent_total",
		"snapshot catch-up chunks served to lagging peers", &s.catchupChunksOut)
	reg.RegisterCounter("gridrep_catchup_chunks_received_total",
		"snapshot catch-up chunks received from peers", &s.catchupChunksIn)
	reg.RegisterCounter("gridrep_catchup_bytes_received_total",
		"snapshot catch-up payload bytes received", &s.catchupBytes)
	reg.RegisterCounter("gridrep_catchup_installs_total",
		"complete snapshots installed via streaming catch-up", &s.catchupInstalls)
	reg.RegisterCounter("gridrep_prune_runs_total",
		"WAL prune passes that discarded entries", &s.pruneRuns)
	reg.RegisterCounter("gridrep_prune_entries_total",
		"log instances discarded by WAL pruning", &s.pruneEntries)
	reg.RegisterCounter("gridrep_config_commits_total",
		"committed membership configuration changes applied", &s.configCommits)
	reg.RegisterGaugeFunc("gridrep_snapshot_index",
		"instance the durable service snapshot is valid after",
		func() int64 { return int64(s.snapAt.Load()) })
	reg.RegisterGaugeFunc("gridrep_pruned_index",
		"highest WAL instance discarded by pruning",
		func() int64 { return int64(s.prunedTo.Load()) })
	s.catchupLat = reg.Histogram("gridrep_catchup_install_seconds",
		"snapshot stream start to install per catch-up", metrics.UnitNanoseconds)
	s.execLat = reg.Histogram("gridrep_execute_latency_seconds",
		"service execution time per accept wave", metrics.UnitNanoseconds)
	s.quorumLat = reg.Histogram("gridrep_quorum_latency_seconds",
		"accept broadcast to quorum completion per wave", metrics.UnitNanoseconds)
	s.commitLat = reg.Histogram("gridrep_commit_latency_seconds",
		"accept broadcast to commitment per wave", metrics.UnitNanoseconds)
	s.requestLat = reg.Histogram("gridrep_request_latency_seconds",
		"client admission to reply per wave (oldest request)", metrics.UnitNanoseconds)
}

// noteInFlight records the current wave occupancy and keeps the
// high-water mark (the event loop is the only writer, so SetMax's
// load+store is race-free).
func (s *stats) noteInFlight(n int) {
	s.wavesInFlight.Set(int64(n))
	s.maxWavesInFlight.SetMax(int64(n))
}

// Metrics returns the replica's metrics registry: the core instruments
// plus whatever the store and transport registered (they self-register
// when they implement metrics.Instrumented). Safe from any goroutine.
func (r *Replica) Metrics() *metrics.Registry { return r.reg }

// Health is a cross-goroutine-safe snapshot of the replica's protocol
// position, the payload of the /healthz endpoint.
type Health struct {
	ID          wire.NodeID `json:"id"`
	Role        string      `json:"role"`
	Leading     bool        `json:"leading"`
	Ballot      string      `json:"ballot"`
	CommitIndex uint64      `json:"commit_index"`
	// Applied is the applied watermark: the instance whose post-state
	// the service reflects, the quantity replicas gossip for pruning.
	Applied uint64 `json:"applied"`
	// SnapshotIndex is the instance the durable service snapshot is
	// valid after (0 = no snapshot yet); PrunedIndex is the highest WAL
	// instance discarded by pruning.
	SnapshotIndex uint64 `json:"snapshot_index"`
	PrunedIndex   uint64 `json:"pruned_index"`
	// Members is the current voting configuration; Learners the
	// non-voting catch-up members.
	Members  []wire.NodeID `json:"members,omitempty"`
	Learners []wire.NodeID `json:"learners,omitempty"`
}

// Health snapshots the replica's protocol position from the health
// mirrors. Safe from any goroutine; the mirrors are refreshed once per
// event-loop iteration, so the view lags live state by at most one
// loop step.
func (r *Replica) Health() Health {
	role := Role(r.stats.role.Load())
	bal := wire.Ballot{
		Round: r.stats.ballotRound.Load(),
		Node:  wire.NodeID(r.stats.ballotNode.Load()),
	}
	h := Health{
		ID:            r.cfg.ID,
		Role:          role.String(),
		Leading:       role == RoleLeading,
		Ballot:        bal.String(),
		CommitIndex:   r.stats.chosen.Load(),
		Applied:       r.stats.applied.Load(),
		SnapshotIndex: r.stats.snapAt.Load(),
		PrunedIndex:   r.stats.prunedTo.Load(),
	}
	if mv, ok := r.stats.membersView.Load().(*membersView); ok {
		h.Members = mv.members
		h.Learners = mv.learners
	}
	return h
}

// publishHealth refreshes the health mirrors; called from the event loop
// once per iteration (a handful of uncontended atomic stores).
func (r *Replica) publishHealth() {
	r.stats.role.Store(int32(r.role))
	r.stats.ballotRound.Store(r.bal.Round)
	r.stats.ballotNode.Store(uint32(r.bal.Node))
	r.stats.chosen.Store(r.acc.Chosen())
	r.stats.applied.Store(r.applied)
	_, snapAt := r.acc.ServiceSnapshot()
	r.stats.snapAt.Store(snapAt)
	r.stats.prunedTo.Store(r.acc.PrunedTo())
}
