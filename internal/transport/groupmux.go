package transport

import (
	"sync"
	"sync/atomic"
	"time"

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
// shared, so the process owner registers it once on the root registry
// instead of once per group.
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

	drops     atomic.Uint64 // envelopes for unknown or closed groups
	crossGrp  atomic.Uint64 // requests refused as cross-group
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
		m.eps[g] = &groupEndpoint{
			mux:   m,
			group: uint32(g),
			recv:  make(chan *wire.Envelope, groupRecvBuf),
		}
	}
	if hr, ok := under.(HealthReporter); ok {
		hr.SetHealth(m.fanOutHealth)
	}
	under.SetSink(m.dispatch)
	return m
}

// groupRecvBuf mirrors the underlying transports' per-endpoint buffers:
// the consumer is one event loop per group, and overflow counts as a
// drop exactly like a network loss (the protocol retries).
const groupRecvBuf = 65536

// Group returns group g's virtual transport.
func (m *GroupMux) Group(g int) Transport { return m.eps[g] }

// Drops counts envelopes the mux itself discarded (closed or unknown
// group, full group buffer), excluding the underlying transport's own
// drops — group endpoints add those in.
func (m *GroupMux) Drops() uint64 { return m.drops.Load() }

// CrossGroupRefusals counts client requests refused with
// wire.StatusCrossGroup.
func (m *GroupMux) CrossGroupRefusals() uint64 { return m.crossGrp.Load() }

// Close detaches every group and closes the underlying transport.
func (m *GroupMux) Close() error {
	var err error
	m.closeOnce.Do(func() {
		for _, ep := range m.eps {
			ep.detach()
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
// goroutine): routing is serialized by routeMu, and group
// delivery is mutex-guarded per endpoint.
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
	m.eps[g].deliver(env)
}

// groupEndpoint is one group's virtual Transport.
type groupEndpoint struct {
	mux   *GroupMux
	group uint32
	// mu orders deliver against detach: a replica's Stop may close the
	// group channel while a dispatch is mid-delivery, and an unguarded
	// close would panic the send.
	mu     sync.Mutex
	recv   chan *wire.Envelope
	drops  atomic.Uint64
	closed bool
}

var (
	_ Transport      = (*groupEndpoint)(nil)
	_ Meter          = (*groupEndpoint)(nil)
	_ HealthReporter = (*groupEndpoint)(nil)
	_ RTTReporter    = (*groupEndpoint)(nil)
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

func (ep *groupEndpoint) Recv() <-chan *wire.Envelope { return ep.recv }

// Close detaches this group only; the shared transport stays up for the
// other groups (a group replica's Stop must not sever its siblings).
func (ep *groupEndpoint) Close() error {
	ep.detach()
	return nil
}

func (ep *groupEndpoint) detach() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if !ep.closed {
		ep.closed = true
		close(ep.recv)
	}
}

// deliver hands an envelope to the group's event loop without ever
// blocking the transport goroutine that called the sink: a full or closed group counts the envelope as
// dropped, and the protocol's retransmissions recover — the same
// contract as the underlying transports' receive buffers.
func (ep *groupEndpoint) deliver(env *wire.Envelope) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		ep.mux.drops.Add(1)
		return
	}
	select {
	case ep.recv <- env:
	default:
		ep.drops.Add(1)
	}
}

// Drops implements Meter: this group's overflow drops plus its share of
// the shared link's accounting (reported in full to each group; the
// figures are diagnostic, not additive across groups).
func (ep *groupEndpoint) Drops() uint64 {
	d := ep.drops.Load()
	if mt, ok := ep.mux.under.(Meter); ok {
		d += mt.Drops()
	}
	return d
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
