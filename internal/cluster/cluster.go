// Package cluster assembles an in-process replicated service deployment:
// n core.Replica instances and any number of clients on one chanx
// network whose latencies come from a netem profile. Integration tests,
// examples, and the benchmark harness all build on it.
//
// With Config.Groups > 1 the cluster becomes a group manager (DESIGN.md
// §13): every node hosts one independent consensus group per group id —
// its own state machine, Ω elector, and WAL — multiplexed over the
// node's single network endpoint, with client requests routed by key
// hash and leadership spread so group g prefers replica g mod N.
package cluster

import (
	"fmt"
	"log"
	"sync"
	"time"

	"gridrep/internal/client"
	"gridrep/internal/core"
	"gridrep/internal/gateway"
	"gridrep/internal/metrics"
	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// Config parameterizes a cluster.
type Config struct {
	// N is the number of service replicas (default 3, the paper's
	// configuration: t=1).
	N int
	// Groups is the number of independent consensus groups hosted by
	// every node (default 1 — the single-group deployment, whose boot
	// path, wire format, and metric names are exactly the pre-sharding
	// ones). See DESIGN.md §13.
	Groups int
	// Profile selects the network model (default netem.Loopback()).
	Profile netem.Profile
	// Seed drives the network model's randomness.
	Seed int64
	// Service creates each replica's service instance (default
	// service.NoopFactory). With Groups > 1 every group gets its own
	// instance; the service should implement service.Sharder if routing
	// must follow application keys.
	Service service.Factory
	// Stores optionally provides stable storage per replica (default
	// in-memory); retained across Crash/Restart and never closed by the
	// cluster — they stay the caller's. With Groups > 1 this map covers
	// group 0 only; other groups use DataDir-derived WALs or in-memory
	// stores.
	Stores map[wire.NodeID]storage.Store
	// DataDir, when set and no store is supplied for a replica, gives
	// each replica a file-backed WAL at <DataDir>/replica-<id>.wal
	// instead of the in-memory default. Groups beyond 0 nest under
	// <DataDir>/group-<g>/. The cluster owns the WALs it opens: Close
	// flushes and closes them.
	DataDir string
	// SyncPolicy and SyncInterval configure DataDir-created WALs (see
	// storage.SyncPolicy; interval only applies to
	// storage.SyncPolicyInterval).
	SyncPolicy   storage.SyncPolicy
	SyncInterval time.Duration

	// Options are the replica tunables, forwarded whole to every group
	// of every node. Zero values take defaults derived from the profile:
	// timeouts from its MaxOneWay, pipeline depth and commit-flush window
	// from its tuning hints (long-haul profiles ask for a deep pipeline
	// and a wide window).
	core.Options

	// ClientRetryEvery and ClientDeadline configure clients.
	ClientRetryEvery time.Duration
	ClientDeadline   time.Duration

	// Logger receives replica role transitions (nil = quiet).
	Logger *log.Logger

	// Tracer, if set, observes every delivered message from the moment
	// the network starts (used for space-time diagrams).
	Tracer func(time.Time, *wire.Envelope)

	// NearReads makes every client stamp its reads with the replica the
	// transport reports the lowest RTT to, which then serves the read
	// from its local state after a voter-quorum confirm round (DESIGN.md
	// §16) — cross-continent clients skip the hop to a far leader.
	NearReads bool
	// Gateway, when non-nil, wraps every node's endpoint in the
	// client-facing edge (DESIGN.md §15): admission control, weighted
	// fair queueing, typed overload sheds, per-session dedup. Nil keeps
	// the exact pre-gateway assembly.
	Gateway *gateway.Config
}

func (c *Config) fillDefaults() {
	if c.N == 0 {
		c.N = 3
	}
	if c.Groups <= 0 {
		c.Groups = 1
	}
	if c.Profile.Configure == nil {
		c.Profile = netem.Loopback()
	}
	if c.Service == nil {
		c.Service = service.NoopFactory
	}
	c.Options.FillDefaults(c.Profile.MaxOneWay, c.Profile.PipelineDepth, c.Profile.CommitFlushDelay)
}

// gsKey identifies one (node, group) replica slot.
type gsKey struct {
	id wire.NodeID
	g  int
}

// slot is the stable storage of one replica slot. It outlives the
// node's crashes: Restart recovers from the same object. owned marks a
// store the cluster opened itself, which Close therefore closes; stores
// handed in through Config.Stores or SetStore stay the caller's.
type slot struct {
	st    storage.Store
	owned bool
}

// Cluster is a running deployment. All methods are safe for concurrent
// use.
type Cluster struct {
	cfg Config
	Net *transport.Network
	ids []wire.NodeID

	mu      sync.Mutex
	nextCli uint32
	joiners map[wire.NodeID]bool  // replicas added via AddReplica
	nodes   map[wire.NodeID]*Node // running nodes
	stores  map[gsKey]slot
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	cfg.fillDefaults()
	net := transport.NewNetwork(cfg.Profile.NewModel(cfg.Seed))
	net.SetTracer(cfg.Tracer)
	c := &Cluster{
		cfg:     cfg,
		Net:     net,
		joiners: make(map[wire.NodeID]bool),
		nodes:   make(map[wire.NodeID]*Node),
		stores:  make(map[gsKey]slot),
	}
	for id, st := range cfg.Stores {
		c.stores[gsKey{id, 0}] = slot{st: st}
	}
	for i := 0; i < cfg.N; i++ {
		c.ids = append(c.ids, wire.NodeID(i))
	}
	for _, id := range c.ids {
		if err := c.startReplica(id); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Groups returns the per-node consensus group count.
func (c *Cluster) Groups() int { return c.cfg.Groups }

// store resolves (creating if necessary) the stable storage for one
// replica slot: in memory, or with DataDir set a WAL the cluster owns.
// Caller holds c.mu.
func (c *Cluster) store(id wire.NodeID, g int) (storage.Store, error) {
	k := gsKey{id, g}
	if sl, ok := c.stores[k]; ok {
		return sl.st, nil
	}
	var st storage.Store = storage.NewMem()
	if c.cfg.DataDir != "" {
		var err error
		if st, err = OpenWAL(GroupWALPath(c.cfg.DataDir, g, id), c.cfg.SyncPolicy, c.cfg.SyncInterval); err != nil {
			return nil, err
		}
	}
	c.stores[k] = slot{st: st, owned: true}
	return st, nil
}

// startReplica boots every consensus group of one node.
func (c *Cluster) startReplica(id wire.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep, err := c.Net.Endpoint(id)
	if err != nil {
		return err
	}
	n, err := StartNode(NodeConfig{
		ID:        id,
		Peers:     c.ids,
		BootN:     c.cfg.N,
		Groups:    c.cfg.Groups,
		Edge:      ep,
		Service:   c.cfg.Service,
		OpenStore: func(g int) (storage.Store, error) { return c.store(id, g) },
		Options:   c.cfg.Options,
		Gateway:   c.cfg.Gateway,
		Join:      c.joiners[id],
		Logger:    c.cfg.Logger,
	})
	if err != nil {
		return err
	}
	c.nodes[id] = n
	return nil
}

// IDs returns the replica IDs.
func (c *Cluster) IDs() []wire.NodeID { return append([]wire.NodeID{}, c.ids...) }

// NewClient attaches a fresh client to the cluster. Clients are
// group-unaware: requests are routed to consensus groups by the
// replicas' multiplexers.
func (c *Cluster) NewClient() (*client.Client, error) {
	c.mu.Lock()
	c.nextCli++
	id := c.nextCli
	c.mu.Unlock()
	return c.clientAt(wire.ClientIDBase + wire.NodeID(id))
}

// NewSessionClient attaches a client for one logical session of a
// tenant. On the in-process network every session gets its own cheap
// endpoint — the session ID packs the tenant into the client NodeID
// exactly as the TCP ClientMux does, so replica-side gateways see the
// same tenant space either way.
func (c *Cluster) NewSessionClient(tenant uint8, n uint32) (*client.Client, error) {
	return c.clientAt(gateway.SessionID(tenant, n))
}

// clientAt attaches a client on its own endpoint id.
func (c *Cluster) clientAt(id wire.NodeID) (*client.Client, error) {
	ep, err := c.Net.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return client.New(client.Config{
		Transport:  ep,
		Replicas:   c.IDs(),
		RetryEvery: c.cfg.ClientRetryEvery,
		Deadline:   c.cfg.ClientDeadline,
		NearRead:   c.cfg.NearReads,
	}), nil
}

// GatewayStats sums the edge counters across every running node — the
// cluster-wide view of admissions, sheds, and dedup hits.
func (c *Cluster) GatewayStats() gateway.Stats {
	c.mu.Lock()
	nodes := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	var sum gateway.Stats
	for _, n := range nodes {
		st := n.GatewayStats()
		sum.Admitted += st.Admitted
		sum.Queued += st.Queued
		sum.DedupHits += st.DedupHits
		sum.DupPassthrough += st.DupPassthrough
		sum.ShedThrottle += st.ShedThrottle
		sum.ShedQueueFull += st.ShedQueueFull
		sum.ShedQueueAged += st.ShedQueueAged
		sum.ExpiredInFlight += st.ExpiredInFlight
		sum.InFlight += st.InFlight
		sum.QueueDepth += st.QueueDepth
		sum.Sessions += st.Sessions
	}
	return sum
}

// node returns the running node with the given ID, if any.
func (c *Cluster) node(id wire.NodeID) (*Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	return n, ok
}

// Replica returns the running group-0 replica with the given ID, if any.
func (c *Cluster) Replica(id wire.NodeID) (*core.Replica, bool) { return c.GroupReplica(id, 0) }

// GroupReplica returns node id's replica for consensus group g, if
// running.
func (c *Cluster) GroupReplica(id wire.NodeID, g int) (*core.Replica, bool) {
	n, ok := c.node(id)
	if !ok || g >= n.Groups() {
		return nil, false
	}
	return n.Group(g), true
}

// NodeMetrics returns the node's process-wide registry when sharded
// (group 0 unprefixed, group g prefixed group_<g>_), or the group-0
// replica's own registry otherwise.
func (c *Cluster) NodeMetrics(id wire.NodeID) (*metrics.Registry, bool) {
	n, ok := c.node(id)
	if !ok {
		return nil, false
	}
	return n.Metrics(), true
}

// GroupHealths reports every group's protocol position on one node, in
// group order — the in-process twin of the TCP server's /healthz array.
func (c *Cluster) GroupHealths(id wire.NodeID) []core.Health {
	n, ok := c.node(id)
	if !ok {
		return nil
	}
	return n.Healths()
}

// Running returns the IDs of currently running replicas.
func (c *Cluster) Running() []wire.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []wire.NodeID
	for _, id := range c.ids {
		if _, ok := c.nodes[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// Leader returns the currently active leader of group 0, if any. A
// partitioned stale leader may still believe it leads (harmlessly — it
// can commit nothing); among several claimants the one with the highest
// ballot is the real leader.
func (c *Cluster) Leader() (wire.NodeID, bool) { return c.GroupLeader(0) }

// GroupLeader returns the currently active leader of group g, if any.
func (c *Cluster) GroupLeader(g int) (wire.NodeID, bool) {
	var best wire.NodeID
	var bestBal wire.Ballot
	found := false
	for _, id := range c.Running() {
		rep, ok := c.GroupReplica(id, g)
		if !ok {
			continue
		}
		var active bool
		var bal wire.Ballot
		rep.Inspect(func(r *core.Replica) {
			active = r.IsActiveLeader()
			bal = r.Ballot()
		})
		if active && (!found || bestBal.Less(bal)) {
			best, bestBal, found = id, bal, true
		}
	}
	return best, found
}

// WaitForLeader blocks until some replica is an active leader of
// group 0.
func (c *Cluster) WaitForLeader(timeout time.Duration) (wire.NodeID, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if id, ok := c.Leader(); ok {
			return id, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("cluster: no leader within %v", timeout)
}

// WaitForAllLeaders blocks until every consensus group has an active
// leader, returning the leader of each group in group order.
func (c *Cluster) WaitForAllLeaders(timeout time.Duration) ([]wire.NodeID, error) {
	deadline := time.Now().Add(timeout)
	leaders := make([]wire.NodeID, c.cfg.Groups)
	for g := 0; g < c.cfg.Groups; {
		id, ok := c.GroupLeader(g)
		if ok {
			leaders[g] = id
			g++
			continue
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("cluster: group %d has no leader within %v", g, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return leaders, nil
}

// Crash stops a node — every consensus group it hosts — and drops all
// its traffic, modelling a crash failure (§3.1). Its stores are kept,
// unflushed and open, for Restart.
func (c *Cluster) Crash(id wire.NodeID) {
	c.mu.Lock()
	n, ok := c.nodes[id]
	delete(c.nodes, id)
	c.mu.Unlock()
	if ok {
		n.Stop()
	}
	c.Net.Model().SetDown(id, true)
}

// Restart recovers a crashed node from its stable storage (§3.1: faulty
// processes can recover).
func (c *Cluster) Restart(id wire.NodeID) error {
	if _, running := c.Replica(id); running {
		return fmt.Errorf("cluster: replica %v already running", id)
	}
	c.Net.Model().SetDown(id, false)
	return c.startReplica(id)
}

// SetStore replaces a crashed replica's group-0 store before Restart.
// Crash tests use it to model memory loss faithfully: the retained Store
// object still holds staged (never-flushed) records in RAM, so a test
// reopens the WAL file fresh and swaps it in, keeping only what a real
// restart would replay from disk. The replica must not be running. The
// new store stays the caller's; a replaced store the cluster had opened
// itself is closed here, unflushed, while nothing writes the file.
func (c *Cluster) SetStore(id wire.NodeID, st storage.Store) {
	c.mu.Lock()
	old := c.stores[gsKey{id, 0}]
	c.stores[gsKey{id, 0}] = slot{st: st}
	c.mu.Unlock()
	if old.owned {
		old.st.Close()
	}
}

// Store returns the stable storage currently assigned to a replica
// (group 0).
func (c *Cluster) Store(id wire.NodeID) (storage.Store, bool) {
	c.mu.Lock()
	sl, ok := c.stores[gsKey{id, 0}]
	c.mu.Unlock()
	return sl.st, ok
}

// AddReplica starts a brand-new node that joins the running cluster
// online: every group boots as a non-voting learner, announces itself
// with JoinReq, catches up (through snapshot streaming when the peers
// have pruned their WALs), and is promoted to voter by a committed
// configuration entry once caught up. Returns once the node is running;
// use WaitForVoter to observe the (group 0) promotion.
func (c *Cluster) AddReplica(id wire.NodeID) error {
	c.mu.Lock()
	for _, cur := range c.ids {
		if cur == id {
			c.mu.Unlock()
			return fmt.Errorf("cluster: replica %v already exists", id)
		}
	}
	c.ids = append(c.ids, id)
	c.joiners[id] = true
	c.mu.Unlock()
	c.Net.Model().SetDown(id, false)
	return c.startReplica(id)
}

// RemoveReplica proposes removing a member through each group's current
// leader. The removal is in force per group once its configuration
// entry commits; the removed replica steps down to an idle non-member
// but keeps running until Crash/Close.
func (c *Cluster) RemoveReplica(id wire.NodeID) error {
	for g := 0; g < c.cfg.Groups; g++ {
		leader, ok := c.GroupLeader(g)
		if !ok {
			return fmt.Errorf("cluster: group %d has no active leader to propose removal", g)
		}
		rep, ok := c.GroupReplica(leader, g)
		if !ok {
			return fmt.Errorf("cluster: group %d leader %v not running", g, leader)
		}
		if err := rep.Reconfigure(wire.ConfigRemove, id, ""); err != nil {
			return err
		}
	}
	return nil
}

// WaitForVoter blocks until the (group 0) leader's committed
// configuration lists id as a voter.
func (c *Cluster) WaitForVoter(id wire.NodeID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if leader, ok := c.Leader(); ok {
			if rep, ok := c.Replica(leader); ok {
				voter := false
				rep.Inspect(func(r *core.Replica) {
					for _, v := range r.Voters() {
						if v == id {
							voter = true
						}
					}
				})
				if voter {
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("cluster: %v not promoted to voter within %v", id, timeout)
}

// SuspectLeader forces every replica's Ω module to distrust the current
// group-0 leader, triggering an election without a real crash — the
// §3.6 leader switch scenario.
func (c *Cluster) SuspectLeader() { c.SuspectGroupLeader(0) }

// SuspectGroupLeader forces a leader switch in one consensus group.
func (c *Cluster) SuspectGroupLeader(g int) {
	leader, ok := c.GroupLeader(g)
	if !ok {
		return
	}
	for _, id := range c.Running() {
		rep, ok := c.GroupReplica(id, g)
		if !ok {
			continue
		}
		// Suspect(leader) at the leader itself maps to a claim
		// withdrawal, so one loop covers everyone.
		rep.Inspect(func(r *core.Replica) { r.Elector().Suspect(leader) })
	}
}

// Close stops every replica and the network, then flushes and closes
// the stores the cluster opened itself; caller-provided stores are left
// as they are.
func (c *Cluster) Close() {
	c.mu.Lock()
	nodes, stores := c.nodes, c.stores
	c.nodes, c.stores = map[wire.NodeID]*Node{}, map[gsKey]slot{}
	c.mu.Unlock()
	for _, n := range nodes {
		n.Stop()
	}
	c.Net.Close()
	for _, sl := range stores {
		if sl.owned {
			// A failed final flush loses only records no quorum was ever
			// told about; there is no caller to report it to.
			_ = flushAndClose(sl.st)
		}
	}
}
