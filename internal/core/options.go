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
	// may wait for the next accept wave to carry it (default 1ms; widen
	// it on long-haul links to amortize commit broadcasts). Commits
	// always piggyback on the next wave's accept broadcast; this timer
	// only covers the case where the queue drains and no next wave
	// follows, so the last wave's commit is never delayed beyond this
	// bound.
	CommitFlushDelay time.Duration
	// NoBatch disables multi-instance accept waves (ablation knob): each
	// wave carries exactly one request, so the strictly sequential
	// reading of §3.3 is enforced even under load. Default off — the
	// paper's own recovery path sends multi-instance accepts, and
	// batching is what lets write throughput scale in Figure 5.
	NoBatch bool
	// SnapshotEvery is the floor of the durable snapshot cadence: a
	// snapshot is taken once at least this many instances were applied
	// since the last (default 1024) and the log applied since then is at
	// least as large as that snapshot (DESIGN.md §9). Snapshots bound WAL
	// pruning and Compact, and serve streaming catch-up; they cannot be
	// switched off, since only they keep the log rewrite small.
	SnapshotEvery uint64
	// PruneKeep retains this many instances below the cluster-wide
	// minimum applied watermark when pruning the WAL (default 1024);
	// everything older is discarded once a durable snapshot covers it.
	PruneKeep uint64
	// RTTPlacement folds measured network distance into Ω leader
	// preference (DESIGN.md §16): each replica smooths its transport's
	// per-peer round-trip estimates (transport.RTTReporter) into one
	// placement cost, gossips it on heartbeats, and Ω ranks replicas by
	// cost before ID — so leadership converges onto the replica closest
	// to the rest of the cluster, regardless of boot order: it enables
	// Ω rank preemption. No-op when the transport cannot report RTTs.
	RTTPlacement bool
}

// FillDefaults replaces every zero tunable with its default. maxOneWay
// is what a deployment knows about its network — the worst one-way delay
// its profile carries (netem.Profile.MaxOneWay); zero means nothing is
// known, which is what the TCP server and a bare core.New pass.
// Filling is idempotent, so a layer may fill with its hints and hand the
// struct down to one that fills again with none.
func (o *Options) FillDefaults(maxOneWay time.Duration) {
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
		o.CommitFlushDelay = time.Millisecond
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 1024
	}
	if o.PruneKeep == 0 {
		o.PruneKeep = 1024
	}
}
