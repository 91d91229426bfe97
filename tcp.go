package gridrep

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"gridrep/internal/client"
	"gridrep/internal/cluster"
	"gridrep/internal/gateway"
	"gridrep/internal/metrics"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// ServerOptions configures one TCP replica process.
type ServerOptions struct {
	// ID is this replica's index into Peers.
	ID NodeID
	// Peers maps every replica ID (including ID) to its host:port
	// listen address. The paper's prototype used raw TCP sockets
	// between all processes (§4); so does this deployment mode.
	Peers map[NodeID]string
	// Service is this replica's service instance. Only a ReadViewer, which pins its own read views, can be passed as
	// one instance; any other needs NewService, because its reads run
	// on a second, scratch instance (service.AsReadViewer).
	Service Service
	// NewService creates the service instances (used if Service is nil).
	NewService ServiceFactory
	// WALPath, when non-empty, enables file-backed stable storage.
	WALPath string
	// SyncPolicy governs group-commit fsyncs on the WAL (default
	// SyncBatch); SyncEvery only applies to SyncInterval.
	SyncPolicy SyncPolicy
	// SyncEvery is the SyncInterval period (default 2ms).
	SyncEvery time.Duration
	// Options are the protocol tunables, the same struct ClusterOptions
	// takes, with the same defaults (no network profile to derive them
	// from: 25ms heartbeat, 1ms commit-flush window).
	Options
	// Join starts this replica as an online joiner (DESIGN.md §12): a
	// non-voting learner that announces itself to the peers listed in
	// Peers, catches up via snapshot streaming, and becomes a voter
	// through a committed configuration entry. Peers must still contain
	// this replica's own listen address under ID.
	Join bool
	// Gateway, when non-nil, enables the client-facing edge (DESIGN.md
	// §15): per-tenant admission control, round-robin fair queueing, typed
	// StatusOverload sheds with retry-after hints, and the per-session
	// dedup window. A zero GatewayOptions value picks defaults. Nil
	// keeps the exact PR 8 byte path.
	Gateway *GatewayOptions
}

// GatewayOptions are the client-facing edge's four deployment knobs —
// MaxInFlight, QueueLen, TenantRate and TenantBurst, which replicad's
// gateway flags set; see internal/gateway.
type GatewayOptions = gateway.Config

// Server is one running TCP replica process.
type Server struct {
	node *cluster.Node
	tr   *transport.TCP
}

// ListenAndServe starts a replica serving the replication protocol over
// TCP. It returns once the replica is listening; the protocol runs in
// the background until Close.
func ListenAndServe(opts ServerOptions) (*Server, error) {
	newService := opts.NewService
	if newService == nil {
		if _, ok := opts.Service.(service.ReadViewer); !ok {
			// Nil, or a service whose reads run on a second, scratch
			// instance (service.AsReadViewer) one instance cannot supply.
			return nil, fmt.Errorf("gridrep: ServerOptions.NewService is required, or Service set to a ReadViewer")
		}
		newService = func() Service { return opts.Service }
	}
	ids := make([]wire.NodeID, 0, len(opts.Peers))
	for id := range opts.Peers {
		ids = append(ids, id)
	}
	tr, err := transport.ListenTCP(opts.ID, opts.Peers)
	if err != nil {
		return nil, err
	}
	cfg := cluster.NodeConfig{
		ID:            opts.ID,
		Peers:         ids,
		Edge:          tr,
		Service:       newService,
		OwnStore:      true,
		Options:       opts.Options,
		Gateway:       opts.Gateway,
		Join:          opts.Join,
		AdvertiseAddr: opts.Peers[opts.ID],
	}
	if opts.WALPath != "" {
		cfg.OpenStore = func() (storage.Store, error) {
			return cluster.OpenWAL(opts.WALPath, opts.SyncPolicy, opts.SyncEvery)
		}
	}
	node, err := cluster.StartNode(cfg)
	if err != nil {
		return nil, err
	}
	return &Server{node: node, tr: tr}, nil
}

// Addr returns the replica's actual listen address.
func (s *Server) Addr() string { return s.tr.Addr() }

// Metrics returns the process's metrics registry — protocol, WAL,
// transport and gateway instruments in one place, and the only way to
// read them. Safe from any goroutine.
func (s *Server) Metrics() *MetricsRegistry { return s.node.Metrics() }

// Health snapshots the replica's protocol position: role, ballot,
// commit index, applied index. Safe from any goroutine.
func (s *Server) Health() Health { return s.node.Replica().Health() }

// DebugHandler returns the replica's debug HTTP surface: /metrics serves
// the registry (Prometheus text by default, JSON with ?format=json), and
// /healthz serves the Health snapshot as one JSON object. replicad
// mounts this on -metrics-addr; embedders can mount it on their own mux.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(s.node.Metrics()))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Health())
	})
	return mux
}

// Close stops the process abruptly (the crash model: staged WAL records are dropped — acknowledged writes are
// durable on a quorum, not on one replica's shutdown path). Use
// Shutdown for a clean exit.
func (s *Server) Close() { s.node.Stop() }

// Shutdown stops the process gracefully: the event loop and persister
// exit, staged WAL batches are flushed, and the stores are
// closed — which joins any in-flight background snapshot rewrite and
// truncates the preallocated tail. Preferred over Close when the
// process will restart and should replay as much of its own logs as
// possible.
func (s *Server) Shutdown() error { return s.node.Shutdown() }

// AddVoter asks this replica to promote a caught-up learner to voter;
// RemoveReplica proposes removing a member. Both changes are decided by
// consensus and take effect at the configuration entry's commit point
// (DESIGN.md §12).
func (s *Server) AddVoter(id NodeID, addr string) error {
	return s.node.Replica().Reconfigure(wire.ConfigAddVoter, id, addr)
}

// RemoveReplica proposes removing a member from the voting
// configuration through this replica, which must be the active leader.
// The leader refuses unsafe transitions: removing itself, or any change
// that would drop the live voter count below the new configuration's
// quorum.
func (s *Server) RemoveReplica(id NodeID) error {
	return s.node.Replica().Reconfigure(wire.ConfigRemove, id, "")
}

// DialOptions configures a TCP client.
type DialOptions struct {
	// ID must be unique among clients; it is offset into the client ID
	// space automatically.
	ID uint32
	// Replicas maps every replica ID to its host:port address.
	Replicas map[NodeID]string
	// Deadline bounds each operation (default 30s).
	Deadline time.Duration
	// NearRead serves X-Paxos reads from the nearest replica's confirm
	// quorum instead of always the leader (DESIGN.md §16). The nearest
	// replica is picked from the transport's heartbeat RTT estimates, or
	// pinned explicitly with NearPin/NearReplica.
	NearRead    bool
	NearPin     bool
	NearReplica NodeID
}

// dial opens the client-side transport with open and fills in
// everything of the client configuration but the transport itself — a
// ClientMux puts a session endpoint there, Dial the connection set.
func dial(opts DialOptions, open func(wire.NodeID, map[wire.NodeID]string) *transport.TCP) (*transport.TCP, client.Config, error) {
	if len(opts.Replicas) == 0 {
		return nil, client.Config{}, fmt.Errorf("gridrep: DialOptions.Replicas is required")
	}
	ids := make([]wire.NodeID, 0, len(opts.Replicas))
	for id := range opts.Replicas {
		ids = append(ids, id)
	}
	tr := open(wire.ClientIDBase+wire.NodeID(opts.ID), opts.Replicas)
	return tr, client.Config{
		Replicas:    ids,
		Deadline:    opts.Deadline,
		NearRead:    opts.NearRead,
		NearPin:     opts.NearPin,
		NearReplica: opts.NearReplica,
	}, nil
}

// Dial connects a client to a TCP-deployed replicated service. The
// client is synchronous, so its requests leave on its own goroutine
// when the connection is idle (transport.DialTCPSync).
func Dial(opts DialOptions) (*Client, error) {
	tr, cfg, err := dial(opts, transport.DialTCPSync)
	if err != nil {
		return nil, err
	}
	cfg.Transport = tr
	return client.New(cfg), nil
}

// ClientMux multiplexes many logical client sessions over one shared
// TCP connection set (DESIGN.md §15): each session gets its own client
// ID — tenant in the upper bits, session number in the lower — and its
// own sequence space, so tens of thousands of clients don't need tens
// of thousands of sockets.
type ClientMux struct {
	mux *gateway.SessionMux
	cfg client.Config // every session's configuration, Transport unset
}

// DialMux connects the shared transport for a session-multiplexed
// client process. The ID in opts seeds nothing here — session identity
// comes from Session's tenant and session number.
func DialMux(opts DialOptions) (*ClientMux, error) {
	tr, cfg, err := dial(opts, transport.DialTCP)
	if err != nil {
		return nil, err
	}
	return &ClientMux{mux: gateway.NewSessionMux(tr), cfg: cfg}, nil
}

// Session opens (or returns) the client for session n of tenant. All
// sessions share the underlying connections; closing the returned
// client detaches only that session. A session sends each write to the
// replica that answered its last one, alone; reads, its first request
// and every rebroadcast go to every replica (DESIGN.md §15).
func (m *ClientMux) Session(tenant uint8, n uint32) (*Client, error) {
	ep, err := m.mux.Open(tenant, n)
	if err != nil {
		return nil, err
	}
	cfg := m.cfg
	cfg.Transport = ep
	return client.NewRouted(cfg), nil
}

// Close closes every session and the shared transport.
func (m *ClientMux) Close() error { return m.mux.Close() }
