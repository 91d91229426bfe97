// Package transport moves wire.Envelopes between processes.
//
// Two implementations are provided: an in-process transport (chanx.go)
// whose delivery times are driven by a netem.Model — used by tests and by
// the benchmark harness to reproduce the paper's three network
// configurations — and a TCP transport (tcpx.go) with length-prefixed
// framing for real multi-process deployments, matching the paper's choice
// of raw TCP sockets (§4).
package transport

import (
	"time"

	"gridrep/internal/wire"
)

// Transport sends and receives protocol envelopes for one local node.
// Sends are asynchronous and best-effort: the system model is an
// asynchronous network with no bound on delivery time (§3.1), and the
// protocol layer owns all retransmission.
type Transport interface {
	// Local returns the node this endpoint belongs to.
	Local() wire.NodeID
	// Send dispatches env.Msg to env.To. The transport stamps From.
	// It never blocks on the network; delivery is not guaranteed.
	Send(env *wire.Envelope)
	// Recv returns the channel of inbound envelopes. The channel is
	// closed when the transport is closed.
	Recv() <-chan *wire.Envelope
	// Close releases resources and closes the Recv channel.
	Close() error
}

// HealthReporter is implemented by transports that can observe
// link-level peer health (connection establishment and death). The
// callback runs on transport goroutines; receivers must not block.
// Replicas feed these events into the Ω elector so leader election
// reacts to real socket failures, not just missing heartbeats.
type HealthReporter interface {
	SetHealth(fn func(peer wire.NodeID, up bool))
}

// Sinker is implemented by transports that can deliver inbound
// envelopes by direct callback instead of through the Recv channel.
// Once a sink is set, Recv receives nothing further; the callback may
// run concurrently from multiple transport goroutines (one per
// connection on TCP), so receivers must synchronize internally and must
// never block — the callback runs on the hot receive path. Set the sink
// before traffic starts. This is how the gateway and the session
// multiplexer keep receive fan-in sharded by connection: each
// connection's read loop dispatches straight into their queues instead
// of funneling through one pump goroutine (DESIGN.md §14).
type Sinker interface {
	SetSink(fn func(*wire.Envelope))
}

// SinkTransport is a Transport that delivers through a sink: what the
// gateway and the session multiplexer require underneath. The
// in-process endpoints and the TCP transport both are.
type SinkTransport interface {
	Transport
	Sinker
}

// RTTReporter is implemented by transports that can estimate per-peer
// round-trip times. The TCP transport smooths its keepalive ping RTTs
// into a per-peer EWMA; the in-process fabric derives the figure from
// the netem model's mean link latencies. Replicas fold the estimates
// into an Ω placement cost and clients use them to pick the nearest
// replica for X-Paxos reads (DESIGN.md §16).
type RTTReporter interface {
	// PeerRTT returns the smoothed round-trip estimate to peer, and
	// false while no estimate exists (no samples yet, unknown peer).
	PeerRTT(peer wire.NodeID) (rtt time.Duration, ok bool)
}

// Broadcast sends msg from t to every node in dst.
func Broadcast(t Transport, dst []wire.NodeID, msg wire.Message) {
	for _, to := range dst {
		t.Send(&wire.Envelope{To: to, Msg: msg})
	}
}
