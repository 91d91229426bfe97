package transport

import (
	"sync"
	"time"

	"gridrep/internal/metrics"
	"gridrep/internal/wire"
)

// GroupMux multiplexes N independent consensus groups over one physical
// Transport (DESIGN.md §13). Each group's replica core gets its own
// virtual Transport whose outbound envelopes are stamped with the group
// id and whose inbound channel receives exactly the traffic for that
// group. Clients stay group-unaware: their Request envelopes arrive
// with group 0, and the mux routes them by key hash (the Route
// callback); replies go back over the shared link from whichever group
// handled the request.
//
// Lifecycle: closing a group endpoint (a replica's Stop path) detaches
// only that group; Close detaches every group and then closes the
// underlying transport. The underlying transport deliberately stays
// un-probed for metrics.Instrumented through the group endpoints: it is
// shared, so the process owner registers it — and the mux's own
// counters, through RegisterMetrics — once on the root registry instead
// of once per group. Each group endpoint registers only its own queue
// overflow, into its group's registry.
type GroupMux struct {
	under SinkTransport
	// route maps a client request to its consensus group; an error means
	// the request is unroutable (cross-group transaction) and the mux
	// replies wire.StatusCrossGroup on the caller's behalf.
	route func(*wire.Request) (uint32, error)
	// routeMu serializes route calls: dispatch runs concurrently from the
	// underlying transport's per-connection decode goroutines, and the
	// shard router keeps single-goroutine transaction-pinning state.
	routeMu sync.Mutex
	eps     []*groupEndpoint

	healthMu sync.Mutex
	healthFn []func(wire.NodeID, bool)

	drops     metrics.Counter // envelopes for unknown or closed groups
	crossGrp  metrics.Counter // requests refused as cross-group
	closeOnce sync.Once
}

// NewGroupMux wraps under with an n-group multiplexer. route decides
// the group for every inbound client request (see Route semantics in
// internal/shard); the mux serializes calls to it. Inbound envelopes
// dispatch to group queues directly from the underlying transport's
// per-connection goroutines through its sink — fan-in stays sharded by
// connection and the mux owns no goroutine (DESIGN.md §14).
func NewGroupMux(under SinkTransport, n int, route func(*wire.Request) (uint32, error)) *GroupMux {
	m := &GroupMux{
		under: under,
		route: route,
		eps:   make([]*groupEndpoint, n),
	}
	for g := range m.eps {
		// As deep as a replica's inbox: one event loop drains each group,
		// and an eviction is a drop the protocol retries.
		m.eps[g] = &groupEndpoint{mux: m, group: uint32(g), inbox: NewInbox(replicaRecvBuf)}
	}
	if hr, ok := under.(HealthReporter); ok {
		hr.SetHealth(m.fanOutHealth)
	}
	under.SetSink(m.dispatch)
	return m
}

// Group returns group g's virtual transport.
func (m *GroupMux) Group(g int) Transport { return m.eps[g] }

// RegisterMetrics implements metrics.Instrumented for the mux's own
// counters; the process owner calls it once on the root registry.
func (m *GroupMux) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("gridrep_groupmux_drops_total",
		"envelopes for an unknown or closed consensus group", &m.drops)
	reg.RegisterCounter("gridrep_groupmux_cross_group_refusals_total",
		"client requests refused with StatusCrossGroup", &m.crossGrp)
}

// Close detaches every group and closes the underlying transport.
func (m *GroupMux) Close() error {
	var err error
	m.closeOnce.Do(func() {
		for _, ep := range m.eps {
			ep.inbox.Close()
		}
		err = m.under.Close()
	})
	return err
}

// fanOutHealth relays link-health events to every group's subscriber:
// one socket serves all groups, so one socket death is N group events.
func (m *GroupMux) fanOutHealth(peer wire.NodeID, up bool) {
	m.healthMu.Lock()
	fns := make([]func(wire.NodeID, bool), len(m.healthFn))
	copy(fns, m.healthFn)
	m.healthMu.Unlock()
	for _, fn := range fns {
		fn(peer, up)
	}
}

// dispatch routes one inbound envelope to its group's queue. Safe for
// concurrent callers (the sink runs it from every connection's decode
// goroutine): routing is serialized by routeMu, and each group's inbox
// guards its own delivery.
func (m *GroupMux) dispatch(env *wire.Envelope) {
	g := env.Group
	if rm, ok := env.Msg.(*wire.RequestMsg); ok && m.route != nil {
		// Client traffic arrives unstamped (clients are
		// group-unaware); route it by key hash. Peer traffic is
		// never MsgRequest.
		m.routeMu.Lock()
		rg, err := m.route(&rm.Req)
		m.routeMu.Unlock()
		if err != nil {
			m.crossGrp.Add(1)
			m.under.Send(&wire.Envelope{
				To: env.From,
				Msg: &wire.ReplyMsg{Rep: wire.Reply{
					Client: rm.Req.Client,
					Seq:    rm.Req.Seq,
					Status: wire.StatusCrossGroup,
					Err:    err.Error(),
				}},
			})
			return
		}
		g = rg
	}
	if int(g) >= len(m.eps) {
		m.drops.Add(1)
		return
	}
	ep := m.eps[g]
	switch ep.inbox.Deliver(env) {
	case Evicted:
		ep.drops.Add(1)
	case Refused:
		m.drops.Add(1)
	}
}

// groupEndpoint is one group's virtual Transport.
type groupEndpoint struct {
	mux   *GroupMux
	group uint32
	inbox *Inbox
	drops metrics.Counter // evictions from the full group inbox
}

var (
	_ Transport            = (*groupEndpoint)(nil)
	_ metrics.Instrumented = (*groupEndpoint)(nil)
	_ HealthReporter       = (*groupEndpoint)(nil)
	_ RTTReporter          = (*groupEndpoint)(nil)
)

func (ep *groupEndpoint) Local() wire.NodeID { return ep.mux.under.Local() }

// Send stamps the group id and forwards over the shared link. Replies
// to clients keep the stamp too — clients ignore it, and symmetric
// stamping keeps the invariant "group g only ever parses traffic it
// sent or that hashes to it".
func (ep *groupEndpoint) Send(env *wire.Envelope) {
	env.Group = ep.group
	ep.mux.under.Send(env)
}

func (ep *groupEndpoint) Recv() <-chan *wire.Envelope { return ep.inbox.Recv() }

// Close detaches this group only; the shared transport stays up for the
// other groups (a group replica's Stop must not sever its siblings).
func (ep *groupEndpoint) Close() error {
	ep.inbox.Close()
	return nil
}

// RegisterMetrics implements metrics.Instrumented: the group's core
// probes its transport, so this group's queue overflow lands in the
// group's own (prefixed) registry.
func (ep *groupEndpoint) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("gridrep_group_recv_overflow_total",
		"envelopes dropped by this group's full receive queue", &ep.drops)
}

// PeerRTT implements RTTReporter by delegating to the shared link: all
// groups ride one socket per peer, so they share one RTT estimate.
func (ep *groupEndpoint) PeerRTT(peer wire.NodeID) (time.Duration, bool) {
	if rr, ok := ep.mux.under.(RTTReporter); ok {
		return rr.PeerRTT(peer)
	}
	return 0, false
}

// SetHealth implements HealthReporter by subscribing this group to the
// shared link's health events.
func (ep *groupEndpoint) SetHealth(fn func(peer wire.NodeID, up bool)) {
	ep.mux.healthMu.Lock()
	ep.mux.healthFn = append(ep.mux.healthFn, fn)
	ep.mux.healthMu.Unlock()
}
