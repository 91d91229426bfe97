// Package gridrep replicates nondeterministic services on asynchronous
// (grid-like) environments, implementing the protocol family of
// "Replicating Nondeterministic Services on Grid Environments"
// (HPDC 2006):
//
//   - the basic protocol — multi-instance Paxos whose decided values are
//     <request, post-execution state> tuples, so that nondeterministic
//     execution happens exactly once, on the leader;
//   - X-Paxos — a majority-confirm fast path for read-only requests; and
//   - T-Paxos — immediate replies inside client transactions with a
//     single consensus instance at commit.
//
// # Writing a service
//
// Implement Service: Execute runs one operation (it may be randomized,
// consult the clock, or otherwise behave nondeterministically), Snapshot
// externalizes state, Restore adopts a peer's state. Replicas never
// re-execute operations; they adopt the leader's state, which is what
// keeps nondeterministic replicas consistent. Optionally implement
// Transactional for concurrent T-Paxos transactions; otherwise the
// replica serializes transactions, running one at a time on the live
// state and undoing an abort from its durable snapshot and log.
// Optionally implement ReadViewer to pin copy-on-write views that reads
// run on concurrently; otherwise reads run, one at a time, on a second
// instance from its ServiceFactory restored to the Snapshot at the
// commit point, and an op that changes that Snapshot is refused as a
// read.
//
// # Deploying
//
// NewCluster starts an in-process deployment whose network behaviour
// comes from a configurable latency profile — ProfileSysnet, ProfileB2P
// and ProfileWAN reproduce the paper's three evaluation configurations.
// ListenAndServe / Dial run the same protocol across real TCP sockets
// for multi-process deployments.
package gridrep

import (
	"time"

	"gridrep/internal/client"
	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/metrics"
	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

// Core abstractions, re-exported for users outside this module.
type (
	// Service is a replicated application; see the package comment.
	Service = service.Service
	// Transactional is a Service with native concurrent transactions.
	Transactional = service.Transactional
	// Workspace is one open transaction's execution context.
	Workspace = service.Workspace
	// ReadViewer is a Service that pins immutable views of its state,
	// on which the replica runs reads concurrently.
	ReadViewer = service.ReadViewer
	// ReadView is one pinned state; its ReadExecute runs a read.
	ReadView = service.ReadView
	// ServiceFactory creates one service instance per replica.
	ServiceFactory = service.Factory

	// NodeID identifies a replica or client process.
	NodeID = wire.NodeID
	// Profile is a network latency/loss model configuration.
	Profile = netem.Profile

	// Client issues requests to the replicated service.
	Client = client.Client
	// Txn is an open T-Paxos transaction.
	Txn = client.Txn

	// Options are the protocol tunables — heartbeat and timeouts,
	// commit-flush window, batching, snapshot cadence, RTT placement.
	// The state-transfer reduction of §3.3 is not among them: it follows
	// from the Service's capabilities (full state, a delta, or the
	// captured choices to replay). ServerOptions and ClusterOptions
	// embed the struct, so a TCP replica and an in-process cluster take
	// exactly the same knobs:
	//
	//	gridrep.ClusterOptions{Options: gridrep.Options{SnapshotEvery: 4096}}
	Options = core.Options

	// SyncPolicy selects when a WAL-backed replica forces a group-commit
	// batch to disk.
	SyncPolicy = storage.SyncPolicy

	// Health is a replica's protocol position (role, ballot, commit and
	// applied indexes), the payload of the /healthz debug endpoint.
	Health = core.Health

	// MetricsRegistry is the unified observability surface: every layer
	// of a replica (protocol core, WAL, transport) registers its
	// counters, gauges, and latency histograms here. Snapshot it
	// programmatically or serve it via Server.DebugHandler.
	MetricsRegistry = metrics.Registry
	// Metric is one instrument's state inside a registry snapshot.
	Metric = metrics.Metric
)

// Sync policies for WAL-backed deployments. SyncBatch is the default:
// one fsync per burst of critical records, the group-commit durable
// path. SyncAlways fsyncs every flushed batch; SyncInterval bounds —
// rather than eliminates — the loss window, trading the §3.1 recovery
// guarantee for disk-independent throughput.
const (
	SyncBatch    = storage.SyncPolicyBatch
	SyncAlways   = storage.SyncPolicyAlways
	SyncInterval = storage.SyncPolicyInterval
)

// ParseSyncPolicy parses "always", "batch" or "interval" (the -sync flag
// vocabulary of replicad).
var ParseSyncPolicy = storage.ParseSyncPolicy

// Client errors, re-exported.
var (
	// ErrAborted reports a transaction killed by a conflict or leader
	// switch.
	ErrAborted = client.ErrAborted
	// ErrTimeout reports that no leader answered within the deadline.
	ErrTimeout = client.ErrTimeout
	// ErrCrossGroup reports a transaction that touched keys in more
	// than one consensus group of a sharded deployment (DESIGN.md §13);
	// each group coordinates independently, so a transaction must stay
	// within the group of its first operation.
	ErrCrossGroup = client.ErrCrossGroup
	// ErrOverloaded reports a request shed at the gateway edge with
	// StatusOverload (DESIGN.md §15) that no replica answered before
	// the deadline. The request never executed; retrying is safe.
	ErrOverloaded = client.ErrOverloaded
)

// Reconfiguration errors (DESIGN.md §12), returned by Server.AddVoter
// and Server.RemoveReplica.
var (
	// ErrNotLeader reports the change was proposed through a replica
	// that is not the activated leader; retry against the leader.
	ErrNotLeader = core.ErrNotLeader
	// ErrConfigInFlight reports another membership change is already
	// awaiting its commit point (changes apply one at a time).
	ErrConfigInFlight = core.ErrConfigInFlight
	// ErrUnsafeChange reports a transition the leader refuses: removing
	// itself, removing down to fewer live voters than the new quorum, or
	// promoting a learner that has not caught up.
	ErrUnsafeChange = core.ErrUnsafeChange
)

// Service toolkit: the nondeterministic services shipped with the
// library (see DESIGN.md §2 and the paper's §2 motivating examples).
var (
	// NewKV returns a replicated key-value store with native
	// transactions (per-key locks).
	NewKV = service.NewKV
	// NewBroker returns the randomized grid resource broker of §2.
	NewBroker = service.NewBroker
	// NewSched returns the FCFS-with-priorities grid scheduler of §2.
	NewSched = service.NewSched
	// NewNoop returns the paper's empty benchmark service.
	NewNoop = service.NewNoop

	// Key-value operation builders and reply parsers.
	KVPut    = service.KVPut
	KVGet    = service.KVGet
	KVDelete = service.KVDelete
	KVAdd    = service.KVAdd
	KVReply  = service.KVReply
	KVInt    = service.KVInt

	// Broker operation builders.
	BrokerRegister  = service.BrokerRegister
	BrokerRequest   = service.BrokerRequest
	BrokerRelease   = service.BrokerRelease
	BrokerList      = service.BrokerList
	BrokerSelection = service.BrokerSelection

	// Scheduler operation builders.
	SchedSubmit   = service.SchedSubmit
	SchedDispatch = service.SchedDispatch
	SchedComplete = service.SchedComplete
	SchedStatus   = service.SchedStatus
)

// Network profiles reproducing the paper's evaluation configurations.
var (
	// ProfileSysnet models the UCSD Sysnet cluster (§4, config 1).
	ProfileSysnet = netem.Sysnet
	// ProfileB2P models clients at Berkeley with replicas at Princeton
	// (§4, config 2).
	ProfileB2P = netem.B2P
	// ProfileWAN models the wide-area spread with the leader at UIUC
	// (§4, config 3); pass the replica hosted at the leader site.
	ProfileWAN = netem.WAN
	// ProfileLoopback is a near-zero-latency profile for tests.
	ProfileLoopback = netem.Loopback
	// ProfileWAN3 models three replicas spread across three continents
	// with asymmetric per-link latency and heavy-tail jitter; ProfileWAN5
	// extends the spread to five regions. See internal/netem/profiles.go
	// for the latency matrices; TestWANNearReadLinearizableUnderRegionPartition
	// and `make race` run them.
	ProfileWAN3 = netem.WAN3
	ProfileWAN5 = netem.WAN5
	// ProfileByName resolves a profile from its -profile flag name
	// (sysnet, b2p, wan, wan3, wan5, loopback); the error lists the valid
	// names. ProfileNames returns them in flag-help order.
	ProfileByName = netem.ProfileByName
	ProfileNames  = netem.ProfileNames
)

// ClusterOptions configures an in-process deployment.
type ClusterOptions struct {
	// Replicas is the replica count (default 3, tolerating one crash —
	// the paper's configuration).
	Replicas int
	// Service creates each replica's service (default: the noop
	// benchmark service).
	Service ServiceFactory
	// Profile selects the network model (default ProfileLoopback()).
	Profile Profile
	// Seed drives the network model's randomness.
	Seed int64
	// DataDir, when non-empty, gives each replica a file-backed
	// write-ahead log under it; empty means in-memory stable storage.
	DataDir string
	// SyncPolicy governs group-commit fsyncs for DataDir-backed WALs
	// (default SyncBatch); SyncEvery only applies to SyncInterval.
	SyncPolicy SyncPolicy
	// SyncEvery is the SyncInterval period (default 2ms).
	SyncEvery time.Duration
	// ClientDeadline bounds each client operation (default 30s).
	ClientDeadline time.Duration
	// Options are the protocol tunables, the same struct ServerOptions
	// takes. Zero values take defaults derived from Profile: timeouts
	// from its worst one-way delay, the commit-flush window from its
	// tuning hint (the WAN profiles widen it).
	Options
	// Groups is the number of independent consensus groups hosted by
	// every replica process (default 1). With Groups > 1 the key space
	// is partitioned by hash routing: each group runs its own state
	// machine, Ω elector, and WAL family (group-<g>/ subdirectories
	// under DataDir), with leadership spread so group g prefers replica
	// g mod Replicas. Transactions must stay within one group — a
	// multi-group transaction fails with ErrCrossGroup. See DESIGN.md
	// §13.
	Groups int
	// NearReads makes clients serve X-Paxos reads from their nearest
	// replica's confirm quorum instead of always the leader (DESIGN.md
	// §16) — the WAN read-latency optimisation.
	NearReads bool
}

// Cluster is a running in-process deployment.
type Cluster struct {
	inner *cluster.Cluster
}

// NewCluster starts an in-process replicated service.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	inner, err := cluster.New(cluster.Config{
		N:              opts.Replicas,
		Groups:         opts.Groups,
		Service:        opts.Service,
		Profile:        opts.Profile,
		Seed:           opts.Seed,
		DataDir:        opts.DataDir,
		SyncPolicy:     opts.SyncPolicy,
		SyncInterval:   opts.SyncEvery,
		Options:        opts.Options,
		ClientDeadline: opts.ClientDeadline,
		NearReads:      opts.NearReads,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner}, nil
}

// NewClient attaches a client to the cluster.
func (c *Cluster) NewClient() (*Client, error) { return c.inner.NewClient() }

// WaitReady blocks until a leader is active and ready to serve.
func (c *Cluster) WaitReady(timeout time.Duration) error {
	_, err := c.inner.WaitForLeader(timeout)
	return err
}

// Leader returns the active leader, if any.
func (c *Cluster) Leader() (NodeID, bool) { return c.inner.Leader() }

// Crash fails a replica (stop + drop all its traffic).
func (c *Cluster) Crash(id NodeID) { c.inner.Crash(id) }

// Restart recovers a crashed replica from its stable storage.
func (c *Cluster) Restart(id NodeID) error { return c.inner.Restart(id) }

// SuspectLeader forces a leader switch without a crash (§3.6).
func (c *Cluster) SuspectLeader() { c.inner.SuspectLeader() }

// Close stops the cluster and closes the write-ahead logs under DataDir.
func (c *Cluster) Close() { c.inner.Close() }

// Internal returns the underlying harness for advanced use (failure
// injection, benchmarks).
func (c *Cluster) Internal() *cluster.Cluster { return c.inner }
