package gateway

import (
	"errors"
	"sync"
	"sync/atomic"

	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// Session IDs pack a tenant and a session number into the client NodeID
// space so no wire change is needed: offset bits 24..30 carry the
// tenant (0..127), bits 0..23 the session number, and bit 31 stays
// clear so ClientIDBase+offset never wraps. Pre-gateway client IDs
// (small offsets) land in tenant 0, which is why a PR 8 client is just
// "tenant 0, session n" to the edge.
const (
	tenantShift = 24
	// MaxTenant is the largest addressable tenant ID.
	MaxTenant = 127
	// MaxSessions is the number of sessions addressable per tenant.
	MaxSessions = 1 << tenantShift
)

// SessionID composes the logical client NodeID for session n of a
// tenant. Out-of-range inputs are masked into range.
func SessionID(tenant uint8, n uint32) wire.NodeID {
	off := uint32(tenant&MaxTenant)<<tenantShift | n&(MaxSessions-1)
	return wire.ClientIDBase + wire.NodeID(off)
}

// TenantOf extracts the tenant from a client NodeID. Replica IDs map
// to tenant 0.
func TenantOf(id wire.NodeID) uint8 {
	if !id.IsClient() {
		return 0
	}
	return uint8(uint32(id-wire.ClientIDBase) >> tenantShift & MaxTenant)
}

// ErrMuxClosed is returned by SessionMux.Open after Close.
var ErrMuxClosed = errors.New("gateway: session mux closed")

// sessionRecvBuf bounds each session's reply buffer. A session has one
// logical request outstanding, broadcast to every replica, so a small
// multiple of the cluster size is ample.
const sessionRecvBuf = 64

// SessionMux multiplexes many logical client sessions onto one
// underlying transport (one TCP connection set per process instead of
// one per client). Each session is a transport.Transport whose Local()
// is its session ID; sends are stamped with that ID — the transports
// preserve a pre-stamped From — so the replica's accept path learns one
// reply route per session and the gateway sees per-session sequence
// spaces. Inbound replies are demultiplexed to session endpoints by
// their reply's client field, straight from the underlying transport's
// sink: the mux owns no goroutine.
type SessionMux struct {
	under transport.SinkTransport

	mu     sync.Mutex
	eps    map[wire.NodeID]*sessionEP
	closed bool

	drops atomic.Uint64
}

// NewSessionMux wraps under, which must deliver replies addressed to
// arbitrary session IDs (the TCP dial transport does: its receive path
// does not filter on the envelope's To field).
func NewSessionMux(under transport.SinkTransport) *SessionMux {
	m := &SessionMux{under: under, eps: make(map[wire.NodeID]*sessionEP)}
	under.SetSink(m.dispatch)
	return m
}

// Open returns the transport endpoint for session n of tenant. Opening
// the same session twice returns the same endpoint.
func (m *SessionMux) Open(tenant uint8, n uint32) (transport.Transport, error) {
	id := SessionID(tenant, n)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrMuxClosed
	}
	ep, ok := m.eps[id]
	if !ok {
		ep = &sessionEP{mux: m, id: id, inbox: transport.NewInbox(sessionRecvBuf)}
		m.eps[id] = ep
	}
	return ep, nil
}

// Drops counts replies that arrived for no open session or a closed one,
// plus evictions from full session inboxes. The mux lives in client
// processes, which keep no metrics registry, so this method is its only
// read surface.
func (m *SessionMux) Drops() uint64 { return m.drops.Load() }

// Close closes the underlying transport, which quiesces its sink
// callbacks, and then detaches every session endpoint.
func (m *SessionMux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	err := m.under.Close()
	m.mu.Lock()
	eps := make([]*sessionEP, 0, len(m.eps))
	for _, ep := range m.eps {
		eps = append(eps, ep)
	}
	m.mu.Unlock()
	for _, ep := range eps {
		ep.inbox.Close()
	}
	return err
}

// dispatch hands one inbound envelope to its session without blocking
// the transport goroutine that called the sink; it may run concurrently,
// one caller per connection.
func (m *SessionMux) dispatch(env *wire.Envelope) {
	to := env.To
	if rm, ok := env.Msg.(*wire.ReplyMsg); ok && rm.Rep.Client != 0 {
		to = rm.Rep.Client
	}
	m.mu.Lock()
	ep := m.eps[to]
	m.mu.Unlock()
	if ep == nil || ep.inbox.Deliver(env) != transport.Queued {
		m.drops.Add(1)
	}
}

// sessionEP is one logical session's view of the shared transport.
type sessionEP struct {
	mux   *SessionMux
	id    wire.NodeID
	inbox *transport.Inbox
}

// Local implements transport.Transport: the session's logical ID.
func (e *sessionEP) Local() wire.NodeID { return e.id }

// Send implements transport.Transport, stamping the session ID as the
// sender before handing off to the shared transport.
func (e *sessionEP) Send(env *wire.Envelope) {
	env.From = e.id
	e.mux.under.Send(env)
}

// Recv implements transport.Transport.
func (e *sessionEP) Recv() <-chan *wire.Envelope { return e.inbox.Recv() }

// Close detaches the session from the mux. The shared transport stays
// open for other sessions.
func (e *sessionEP) Close() error {
	e.mux.mu.Lock()
	if e.mux.eps[e.id] == e {
		delete(e.mux.eps, e.id)
	}
	e.mux.mu.Unlock()
	e.inbox.Close()
	return nil
}
