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
	"gridrep/internal/storage"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// TransportOptions tunes the self-healing TCP transport: queue bounds,
// reconnect backoff, write deadlines, and the heartbeat that detects
// dead links. The zero value picks sensible defaults.
type TransportOptions = transport.Options

// TransportStats is a snapshot of the TCP transport's counters: dials,
// reconnects, drops by cause, queue depth, and heartbeat RTT.
type TransportStats = transport.Stats

// ServerOptions configures one TCP replica process.
type ServerOptions struct {
	// ID is this replica's index into Peers.
	ID NodeID
	// Peers maps every replica ID (including ID) to its host:port
	// listen address. The paper's prototype used raw TCP sockets
	// between all processes (§4); so does this deployment mode.
	Peers map[NodeID]string
	// Service is this replica's service instance (single-group mode).
	Service Service
	// Groups is the number of independent consensus groups this process
	// hosts (default 1). With Groups > 1 the key space is partitioned by
	// hash routing (DESIGN.md §13): each group runs its own state
	// machine, Ω elector, and WAL (per-group subdirectories next to
	// WALPath), multiplexed over the same TCP connections, with group
	// g's preferred leader at replica g mod len(Peers). NewService is
	// required instead of Service.
	Groups int
	// NewService creates one service instance per group; required when
	// Groups > 1 (each group owns an independent partition of the key
	// space), optional otherwise (used for group 0 if Service is nil).
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
	// from: 25ms heartbeat, serial pipeline, 1ms commit-flush window).
	// Options.WireCompat is the rolling-upgrade switch.
	Options
	// Join starts this replica as an online joiner (DESIGN.md §12): a
	// non-voting learner that announces itself to the peers listed in
	// Peers, catches up via snapshot streaming, and becomes a voter
	// through a committed configuration entry. Peers must still contain
	// this replica's own listen address under ID.
	Join bool
	// Transport tunes the TCP transport (zero value = defaults).
	Transport TransportOptions
	// Gateway, when non-nil, enables the client-facing edge (DESIGN.md
	// §15): per-tenant admission control, weighted fair queueing, typed
	// StatusOverload sheds with retry-after hints, and the per-session
	// dedup window. A zero GatewayOptions value picks defaults, with the
	// global in-flight budget sized from pipeline depth × groups. Nil
	// keeps the exact PR 8 byte path.
	Gateway *GatewayOptions
}

// GatewayOptions tunes the client-facing edge; see internal/gateway.
type GatewayOptions = gateway.Config

// GatewayStats is a snapshot of the edge counters: admissions, queue
// occupancy, sheds by cause, and dedup hits.
type GatewayStats = gateway.Stats

// Server is one running TCP replica process — every consensus group it
// hosts (one in the classic deployment, N in a sharded one).
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
		if opts.Service == nil {
			return nil, fmt.Errorf("gridrep: ServerOptions.Service (or NewService) is required")
		}
		if opts.Groups > 1 {
			return nil, fmt.Errorf("gridrep: Groups > 1 requires ServerOptions.NewService (one independent service instance per group)")
		}
		svc := opts.Service
		newService = func() Service { return svc }
	}
	ids := make([]wire.NodeID, 0, len(opts.Peers))
	for id := range opts.Peers {
		ids = append(ids, id)
	}
	tr, err := transport.ListenTCPOpts(opts.ID, opts.Peers, opts.Transport)
	if err != nil {
		return nil, err
	}
	bootN := len(ids)
	if opts.Join && bootN > 1 {
		// A joiner's book already includes itself; the founding members
		// ranked group leadership without it.
		bootN--
	}
	cfg := cluster.NodeConfig{
		ID:            opts.ID,
		Peers:         ids,
		BootN:         bootN,
		Groups:        opts.Groups,
		Edge:          tr,
		Service:       newService,
		OwnStores:     true,
		Options:       opts.Options,
		Gateway:       opts.Gateway,
		Join:          opts.Join,
		AdvertiseAddr: opts.Peers[opts.ID],
	}
	if opts.WALPath != "" {
		cfg.OpenStore = func(g int) (storage.Store, error) {
			return cluster.OpenWAL(cluster.WALFile(opts.WALPath, g), opts.SyncPolicy, opts.SyncEvery)
		}
	}
	node, err := cluster.StartNode(cfg)
	if err != nil {
		return nil, err
	}
	return &Server{node: node, tr: tr}, nil
}

// Groups returns the number of consensus groups this process hosts.
func (s *Server) Groups() int { return s.node.Groups() }

// Addr returns the replica's actual listen address.
func (s *Server) Addr() string { return s.tr.Addr() }

// TransportStats snapshots the replica's transport counters.
func (s *Server) TransportStats() TransportStats { return s.tr.Stats() }

// GatewayStats snapshots the client-facing edge counters; the zero
// value when the gateway is disabled.
func (s *Server) GatewayStats() GatewayStats { return s.node.GatewayStats() }

// Metrics returns the process's metrics registry — protocol, WAL, and
// transport instruments in one place (sharded: group 0 unprefixed,
// group g under group_<g>_). Safe from any goroutine.
func (s *Server) Metrics() *MetricsRegistry { return s.node.Metrics() }

// Health snapshots the group-0 replica's protocol position: role,
// ballot, commit index, applied index. Safe from any goroutine; see
// GroupHealths for the per-group view of a sharded server.
func (s *Server) Health() Health { return s.node.Group(0).Health() }

// GroupHealths snapshots every consensus group's protocol position, in
// group order — the payload of the sharded /healthz array.
func (s *Server) GroupHealths() []Health { return s.node.Healths() }

// groupHealth is one /healthz array element: a group id plus that
// group's Health, flattened into one JSON object.
type groupHealth struct {
	Group int `json:"group"`
	Health
}

// DebugHandler returns the replica's debug HTTP surface: /metrics serves
// the registry (Prometheus text by default, JSON with ?format=json), and
// /healthz serves the Health snapshot as JSON — a single object for a
// single-group server, an array of {"group": g, ...health} objects when
// the process hosts several consensus groups (README documents both).
// replicad mounts this on -metrics-addr; embedders can mount it on
// their own mux.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(s.node.Metrics()))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		hs := s.node.Healths()
		if len(hs) == 1 {
			_ = enc.Encode(hs[0])
			return
		}
		out := make([]groupHealth, 0, len(hs))
		for g, h := range hs {
			out = append(out, groupHealth{Group: g, Health: h})
		}
		_ = enc.Encode(out)
	})
	return mux
}

// Close stops the process abruptly — every group's replica (the crash
// model: staged WAL records are dropped — acknowledged writes are
// durable on a quorum, not on one replica's shutdown path). Use
// Shutdown for a clean exit.
func (s *Server) Close() { s.node.Stop() }

// Shutdown stops the process gracefully: every group's event loop and
// persister exit, staged WAL batches are flushed, and the stores are
// closed — which joins any in-flight background snapshot rewrite and
// truncates the preallocated tail. Preferred over Close when the
// process will restart and should replay as much of its own logs as
// possible.
func (s *Server) Shutdown() error { return s.node.Shutdown() }

// AddVoter asks this replica to promote a caught-up learner to voter;
// RemoveReplica proposes removing a member. Both changes are decided by
// consensus and take effect at the configuration entry's commit point
// (DESIGN.md §12). The change is proposed in every consensus group this
// process hosts; with leadership spread across replicas a group whose
// leader lives elsewhere answers ErrNotLeader, and the operator repeats
// the call against the remaining leaders (group order is stable, and a
// group that already committed the change accepts the retry as a
// no-op-level refusal it reports distinctly).
func (s *Server) AddVoter(id NodeID, addr string) error {
	return s.reconfigure(wire.ConfigAddVoter, id, addr)
}

// RemoveReplica proposes removing a member from the voting
// configuration through this replica (which must be the active
// leader of each hosted group; see AddVoter for the sharded contract).
// The leader refuses unsafe transitions: removing itself, or any change
// that would drop the live voter count below the new configuration's
// quorum.
func (s *Server) RemoveReplica(id NodeID) error {
	return s.reconfigure(wire.ConfigRemove, id, "")
}

// reconfigure proposes one membership change in every hosted group.
func (s *Server) reconfigure(op wire.ConfigOp, id NodeID, addr string) error {
	for g := 0; g < s.node.Groups(); g++ {
		if err := s.node.Group(g).Reconfigure(op, id, addr); err != nil {
			if s.node.Groups() > 1 {
				return fmt.Errorf("group %d: %w", g, err)
			}
			return err
		}
	}
	return nil
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
	// Transport tunes the TCP transport (zero value = defaults).
	Transport TransportOptions
	// NearRead serves X-Paxos reads from the nearest replica's confirm
	// quorum instead of always the leader (DESIGN.md §16). The nearest
	// replica is picked from the transport's heartbeat RTT estimates, or
	// pinned explicitly with NearPin/NearReplica.
	NearRead    bool
	NearPin     bool
	NearReplica NodeID
}

// dial opens the client-side transport and fills in everything of the
// client configuration but the transport itself — a ClientMux puts a
// session endpoint there, Dial the connection set.
func dial(opts DialOptions) (*transport.TCP, client.Config, error) {
	if len(opts.Replicas) == 0 {
		return nil, client.Config{}, fmt.Errorf("gridrep: DialOptions.Replicas is required")
	}
	ids := make([]wire.NodeID, 0, len(opts.Replicas))
	for id := range opts.Replicas {
		ids = append(ids, id)
	}
	tr := transport.DialTCPOpts(wire.ClientIDBase+wire.NodeID(opts.ID), opts.Replicas, opts.Transport)
	return tr, client.Config{
		Replicas:    ids,
		Deadline:    opts.Deadline,
		NearRead:    opts.NearRead,
		NearPin:     opts.NearPin,
		NearReplica: opts.NearReplica,
	}, nil
}

// Dial connects a client to a TCP-deployed replicated service.
func Dial(opts DialOptions) (*Client, error) {
	tr, cfg, err := dial(opts)
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
	tr, cfg, err := dial(opts)
	if err != nil {
		return nil, err
	}
	return &ClientMux{mux: gateway.NewSessionMux(tr), cfg: cfg}, nil
}

// Session opens (or returns) the client for session n of tenant. All
// sessions share the underlying connections; closing the returned
// client detaches only that session.
func (m *ClientMux) Session(tenant uint8, n uint32) (*Client, error) {
	ep, err := m.mux.Open(tenant, n)
	if err != nil {
		return nil, err
	}
	cfg := m.cfg
	cfg.Transport = ep
	return client.New(cfg), nil
}

// Close closes every session and the shared transport.
func (m *ClientMux) Close() error { return m.mux.Close() }
