package core

import "time"

// Options are the protocol tunables — the one declaration of each knob.
// Config, cluster.Config, gridrep.ServerOptions and gridrep.ClusterOptions
// embed the struct by value and every layer forwards it whole
// (`Options: cfg.Options`), so a knob exists once and cannot be dropped
// on the way down. DESIGN.md "Node assembly and options" has the knob
// table: each one's status and what selects it in production.
type Options struct {
	// HeartbeatInterval drives Ω heartbeats (default 25ms, raised to
	// twice the deployment's worst one-way delay when that is known).
	HeartbeatInterval time.Duration
	// ElectionTimeout is how long a silent leader stays trusted
	// (default 8×HeartbeatInterval).
	ElectionTimeout time.Duration
	// RetryTimeout bounds how long the leader waits before
	// retransmitting an unacknowledged prepare/accept/catch-up
	// (default 4×HeartbeatInterval, at least six worst one-way delays).
	RetryTimeout time.Duration
	// CommitFlushDelay bounds how long a committed wave's notification
	// may wait for the next accept wave to carry it (default: the
	// deployment profile's hint — long-haul profiles widen the window to
	// amortize commit broadcasts — else 1ms). Commits always piggyback
	// on the next wave's accept broadcast; this timer only covers the
	// case where the queue drains and no next wave follows, so the last
	// wave's commit is never delayed beyond this bound.
	CommitFlushDelay time.Duration
	// PipelineDepth bounds how many accept waves the leader may keep in
	// flight speculatively. The default — unless the deployment profile
	// hints at a deeper pipeline — is 1, the paper's serial protocol:
	// instance i is proposed only after i−1 commits. Depths above 1 let
	// the leader execute wave i+1 against its local post-i state and
	// propose it while wave i's quorum round trip and fsync are still
	// outstanding; a ballot demotion re-derives the service from the
	// chosen log (discarding every speculative execution), and client
	// replies still fire only when a wave and all its predecessors
	// commit. See DESIGN.md §10 for the ordering/re-derivation contract.
	PipelineDepth int
	// NoBatch disables multi-instance accept waves (ablation knob): each
	// wave carries exactly one request, so the strictly sequential
	// reading of §3.3 is enforced even under load. Default off — the
	// paper's own recovery path sends multi-instance accepts, and
	// batching is what lets write throughput scale in Figure 5.
	NoBatch bool
	// SnapshotEvery takes a durable service snapshot every this many
	// applied instances (default 1024). Snapshots bound WAL pruning and
	// Compact, and serve streaming catch-up.
	SnapshotEvery uint64
	// PruneKeep retains this many instances below the cluster-wide
	// minimum applied watermark when pruning the WAL (default 1024);
	// everything older is discarded once a durable snapshot covers it.
	PruneKeep uint64
	// RTTPlacement folds measured network distance into Ω leader
	// preference (DESIGN.md §16): each replica smooths its transport's
	// per-peer round-trip estimates (transport.RTTReporter) into one
	// placement cost, gossips it on heartbeats, and Ω ranks replicas by
	// cost before LeaderRank/ID — so leadership converges onto the
	// replica closest to the rest of the cluster, regardless of boot
	// order. Enables the same rank preemption as LeaderRank. No-op when
	// the transport cannot report RTTs.
	RTTPlacement bool
}

// FillDefaults replaces every zero tunable with its default. The
// arguments are what a deployment knows about its network — the worst
// one-way delay, and the pipeline depth and commit-flush window its
// profile suggests (netem.Profile carries all three); zeros mean nothing
// is known, which is what the TCP server and a bare core.New pass.
// Filling is idempotent, so a layer may fill with its hints and hand the
// struct down to one that fills again with none.
func (o *Options) FillDefaults(maxOneWay time.Duration, depthHint int, flushHint time.Duration) {
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 25 * time.Millisecond
		if hb := 2 * maxOneWay; hb > o.HeartbeatInterval {
			o.HeartbeatInterval = hb
		}
	}
	if o.ElectionTimeout == 0 {
		o.ElectionTimeout = 8 * o.HeartbeatInterval
	}
	if o.RetryTimeout == 0 {
		o.RetryTimeout = 4 * o.HeartbeatInterval
		if rt := 6 * maxOneWay; rt > o.RetryTimeout {
			o.RetryTimeout = rt
		}
	}
	if o.CommitFlushDelay == 0 {
		o.CommitFlushDelay = flushHint
	}
	if o.CommitFlushDelay == 0 {
		o.CommitFlushDelay = time.Millisecond
	}
	if o.PipelineDepth == 0 {
		o.PipelineDepth = depthHint
	}
	if o.PipelineDepth <= 0 {
		o.PipelineDepth = 1
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 1024
	}
	if o.PruneKeep == 0 {
		o.PruneKeep = 1024
	}
}
