package cluster

import (
	"fmt"
	"io"
	"log"
	"path/filepath"
	"time"

	"gridrep/internal/core"
	"gridrep/internal/gateway"
	"gridrep/internal/metrics"
	"gridrep/internal/service"
	"gridrep/internal/shard"
	"gridrep/internal/storage"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// NodeConfig describes one replica process: every consensus group it
// hosts, on one network endpoint. The in-process cluster and the TCP
// server (gridrep.ListenAndServe) both boot their replicas by filling
// one of these — DESIGN.md "Node assembly and options".
type NodeConfig struct {
	// ID is this node; Peers lists every member, ID included.
	ID    wire.NodeID
	Peers []wire.NodeID
	// BootN is the bootstrap member count. Sharded deployments spread
	// group leadership over it (group g prefers replica g mod BootN), so
	// a node that joins later must be given the count the founding
	// members booted with, not the size of its own address book.
	BootN int
	// Groups is the number of consensus groups (values below 1 mean 1).
	Groups int
	// Edge is the node's network endpoint. The node closes it on Stop.
	Edge transport.SinkTransport
	// Service creates one service instance per group (and, sharded, one
	// more for the router to ask about keys).
	Service service.Factory
	// OpenStore returns group g's stable storage; nil means in-memory.
	// With OwnStores set the node closes what OpenStore returned — on
	// Shutdown and when the boot fails part way; otherwise the stores
	// stay the caller's, untouched by any exit path.
	OpenStore func(g int) (storage.Store, error)
	OwnStores bool
	// Options are the protocol tunables, handed to every group whole.
	Options core.Options
	// Gateway, when non-nil, puts the client-facing edge (DESIGN.md §15)
	// between Edge and the cores. A non-positive MaxInFlight is sized
	// pipeline depth × groups × 64.
	Gateway *gateway.Config
	// Join boots every group as an online joiner (DESIGN.md §12), with
	// AdvertiseAddr the address peers should add to their books.
	Join          bool
	AdvertiseAddr string
	// Logger receives role transitions (nil = quiet).
	Logger *log.Logger
}

// Node is one running replica process.
type Node struct {
	reps   []*core.Replica // index = group id
	stores []storage.Store // what OpenStore returned, when owned
	gw     *gateway.Gateway
	reg    *metrics.Registry // the shared registry; nil when single-group
	top    io.Closer         // outermost transport layer; closing it closes Edge
}

// StartNode assembles and starts a node: Edge → gateway → (router +
// GroupMux when sharded) → one core per group. A single group gets the
// endpoint directly, with no multiplexer and no shared registry — the
// pre-sharding assembly, byte for byte on the wire and name for name in
// metrics; a GroupMux would cost it a 64k-slot queue per group and a hop
// on every message. On error nothing is left running or open.
func StartNode(cfg NodeConfig) (*Node, error) {
	cfg.Options.FillDefaults(0, 0, 0) // the gateway is sized from the effective pipeline depth
	groups := cfg.Groups
	if groups < 1 {
		groups = 1
	}
	n := &Node{top: cfg.Edge}
	edge := cfg.Edge
	if cfg.Gateway != nil {
		// The edge wraps the endpoint before the multiplexer sees it, so
		// admission decisions happen on the transport's receive
		// goroutines, before any group queue.
		gcfg := *cfg.Gateway
		if gcfg.MaxInFlight <= 0 {
			gcfg.MaxInFlight = cfg.Options.PipelineDepth * groups * 64
		}
		n.gw = gateway.Wrap(cfg.Edge, gcfg)
		edge, n.top = n.gw, n.gw
	}
	var mux *transport.GroupMux
	if groups > 1 {
		// Sharded: hash routing, group-id stamping and health fan-out in
		// a GroupMux, and one registry for the process with the shared
		// edge registered once at the root (the group endpoints hide it
		// from the cores' own probe).
		mux = transport.NewGroupMux(edge, groups, shard.NewRouter(groups, cfg.Service()).Route)
		n.top = mux
		n.reg = metrics.NewRegistry()
		if ins, ok := edge.(metrics.Instrumented); ok {
			ins.RegisterMetrics(n.reg)
		}
	}
	fail := func(err error) (*Node, error) {
		n.Stop()
		for _, st := range n.stores {
			st.Close() // nothing acknowledged depends on a boot that failed
		}
		return nil, err
	}
	for g := 0; g < groups; g++ {
		cc := core.Config{
			ID:            cfg.ID,
			Peers:         append([]wire.NodeID(nil), cfg.Peers...),
			Service:       cfg.Service(),
			Transport:     edge, // the core makes its own registry and probes edge
			Options:       cfg.Options,
			Join:          cfg.Join,
			AdvertiseAddr: cfg.AdvertiseAddr,
			Logger:        cfg.Logger,
		}
		if mux != nil {
			cc.Transport = mux.Group(g)
			cc.Metrics = n.reg // group 0 unprefixed: names as in a single-group node
			if g > 0 {
				cc.Metrics = n.reg.WithPrefix(fmt.Sprintf("group_%d_", g))
			}
			cc.LeaderRank = shard.LeaderRank(uint32(g), cfg.BootN)
		}
		if cfg.OpenStore != nil {
			var err error
			if cc.Store, err = cfg.OpenStore(g); err != nil {
				return fail(err)
			}
			if cfg.OwnStores {
				n.stores = append(n.stores, cc.Store)
			}
		}
		rep, err := core.New(cc)
		if err != nil {
			return fail(err)
		}
		n.reps = append(n.reps, rep)
		rep.Start()
	}
	return n, nil
}

// Groups returns the number of consensus groups the node hosts.
func (n *Node) Groups() int { return len(n.reps) }

// Group returns group g's replica.
func (n *Node) Group(g int) *core.Replica { return n.reps[g] }

// Metrics returns the node's registry: the shared one when sharded
// (group 0 unprefixed, group g under group_<g>_), else the single
// replica's own. Safe from any goroutine.
func (n *Node) Metrics() *metrics.Registry {
	if n.reg != nil {
		return n.reg
	}
	return n.reps[0].Metrics()
}

// Healths snapshots every group's protocol position, in group order.
func (n *Node) Healths() []core.Health {
	out := make([]core.Health, 0, len(n.reps))
	for _, rep := range n.reps {
		out = append(out, rep.Health())
	}
	return out
}

// GatewayStats snapshots the client-facing edge's counters; the zero
// value when the node runs without one.
func (n *Node) GatewayStats() gateway.Stats {
	if n.gw == nil {
		return gateway.Stats{}
	}
	return n.gw.Stats()
}

// Stop halts the node abruptly — every group's replica, then the
// transport stack down to Edge. This is the crash model: staged WAL
// records are dropped (an acknowledged write is durable on a quorum,
// never on one replica's shutdown path) and no store is flushed or
// closed.
func (n *Node) Stop() {
	for _, rep := range n.reps {
		rep.Stop()
	}
	n.top.Close()
}

// Shutdown stops the node gracefully: Stop, then every store the node
// owns is flushed and closed — which joins any in-flight background
// snapshot rewrite and truncates the preallocated tail — so a restart
// replays as much of its own logs as possible.
func (n *Node) Shutdown() error {
	n.Stop()
	var err error
	for _, st := range n.stores {
		if cerr := flushAndClose(st); err == nil {
			err = cerr
		}
	}
	return err
}

// flushAndClose makes a stopped replica's staged records durable and
// releases the store.
func flushAndClose(st storage.Store) error {
	var err error
	if fl, ok := st.(storage.Flusher); ok {
		err = fl.Flush()
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenWAL opens (replaying, if it exists) the file-backed store at path
// with the given group-commit sync policy; every applies to
// storage.SyncPolicyInterval only.
func OpenWAL(path string, pol storage.SyncPolicy, every time.Duration) (storage.Store, error) {
	fs, err := storage.OpenFile(path)
	if err != nil {
		return nil, err
	}
	fs.SetPolicy(pol, every)
	return fs, nil
}

// WALFile is the on-disk layout of a node's WAL family, given the path
// of its group-0 log: group 0 uses that path itself (a one-group data
// dir is byte-for-byte a pre-sharding one) and each further group nests
// in a group-<g> directory beside it.
func WALFile(path string, g int) string {
	if g == 0 {
		return path
	}
	return filepath.Join(filepath.Dir(path), fmt.Sprintf("group-%d", g), filepath.Base(path))
}

// GroupWALPath names replica id's group-g WAL under an in-process
// cluster's data directory.
func GroupWALPath(dir string, g int, id wire.NodeID) string {
	return WALFile(filepath.Join(dir, fmt.Sprintf("replica-%d.wal", id)), g)
}
