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
	"gridrep/internal/storage"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// NodeConfig describes one replica process: its consensus group's
// replica on one network endpoint. The in-process cluster and the TCP
// server (gridrep.ListenAndServe) both boot their replicas by filling
// one of these — DESIGN.md "Node assembly and options".
type NodeConfig struct {
	// ID is this node; Peers lists every member, ID included.
	ID    wire.NodeID
	Peers []wire.NodeID
	// Edge is the node's network endpoint. The node closes it on Stop.
	Edge transport.SinkTransport
	// Service creates the service instance, and a second as the read
	// scratch of a service that is no service.ReadViewer.
	Service service.Factory
	// OpenStore returns the replica's stable storage; nil means
	// in-memory. With OwnStore set the node closes what OpenStore
	// returned — on Shutdown and when the boot fails; otherwise the
	// store stays the caller's, untouched by any exit path.
	OpenStore func() (storage.Store, error)
	OwnStore  bool
	// Options are the protocol tunables, handed to the core whole.
	Options core.Options
	// Gateway, when non-nil, puts the client-facing edge (DESIGN.md §15)
	// between Edge and the core.
	Gateway *gateway.Config
	// Join boots the replica as an online joiner (DESIGN.md §12), with
	// AdvertiseAddr the address peers should add to their books.
	Join          bool
	AdvertiseAddr string
	// Logger receives role transitions (nil = quiet).
	Logger *log.Logger
}

// Node is one running replica process.
type Node struct {
	rep   *core.Replica
	store storage.Store // what OpenStore returned, when owned
	top   io.Closer     // outermost transport layer; closing it closes Edge
}

// StartNode assembles and starts a node: Edge → gateway → core. On
// error nothing is left running or open.
func StartNode(cfg NodeConfig) (*Node, error) {
	n := &Node{top: cfg.Edge}
	var edge transport.Transport = cfg.Edge
	if cfg.Gateway != nil {
		// Admission decisions happen on the transport's receive
		// goroutines, before the core's queue.
		gw := gateway.Wrap(cfg.Edge, *cfg.Gateway)
		edge, n.top = gw, gw
	}
	cc := core.Config{
		ID:            cfg.ID,
		Peers:         append([]wire.NodeID(nil), cfg.Peers...),
		Service:       cfg.Service,
		Transport:     edge, // the core makes its registry and probes edge
		Options:       cfg.Options,
		Join:          cfg.Join,
		AdvertiseAddr: cfg.AdvertiseAddr,
		Logger:        cfg.Logger,
	}
	if cfg.OpenStore != nil {
		var err error
		if cc.Store, err = cfg.OpenStore(); err != nil {
			n.top.Close()
			return nil, err
		}
		if cfg.OwnStore {
			n.store = cc.Store
		}
	}
	rep, err := core.New(cc)
	if err != nil {
		n.top.Close()
		if n.store != nil {
			n.store.Close() // nothing acknowledged depends on a boot that failed
		}
		return nil, err
	}
	n.rep = rep
	rep.Start()
	return n, nil
}

// Replica returns the node's replica.
func (n *Node) Replica() *core.Replica { return n.rep }

// Metrics returns the replica's registry. Safe from any goroutine.
func (n *Node) Metrics() *metrics.Registry { return n.rep.Metrics() }

// Stop halts the node abruptly — the replica, then the transport stack
// down to Edge. This is the crash model: staged WAL records are dropped
// (an acknowledged write is durable on a quorum, never on one replica's
// shutdown path) and no store is flushed or closed.
func (n *Node) Stop() {
	n.rep.Stop()
	n.top.Close()
}

// Shutdown stops the node gracefully: Stop, then the store the node
// owns is flushed and closed — which joins any in-flight background
// snapshot rewrite and truncates the preallocated tail — so a restart
// replays as much of its own log as possible.
func (n *Node) Shutdown() error {
	n.Stop()
	if n.store == nil {
		return nil
	}
	return flushAndClose(n.store)
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

// GroupWALPath names replica id's WAL under an in-process cluster's
// data directory. A node hosts one consensus group, group 0, and so the
// group argument is ignored; the benchmark harness calls this
// signature.
func GroupWALPath(dir string, _ int, id wire.NodeID) string {
	return filepath.Join(dir, fmt.Sprintf("replica-%d.wal", id))
}
