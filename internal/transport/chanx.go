package transport

import (
	"container/heap"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gridrep/internal/netem"
	"gridrep/internal/wire"
)

// Network is an in-process message fabric. Every Send is encoded with the
// wire codec, assigned a delivery time by the netem.Model, and decoded
// again at delivery — so the full marshaling path is exercised and no
// memory is ever shared between sender and receiver.
//
// Delivery per (src, dst) pair is FIFO, modelling the TCP connections the
// paper used: a message never overtakes an earlier message on the same
// link, even when the latency model samples a smaller delay for it.
type Network struct {
	model *netem.Model

	mu         sync.Mutex
	endpoints  map[wire.NodeID]*Endpoint
	queue      deliveryHeap
	lastAt     map[[2]wire.NodeID]time.Time // FIFO floor per directed link
	floorSwept time.Time                    // last lastAt purge (see run)
	seq        uint64
	wake       chan struct{}
	closed     bool

	// tracer, if set, observes every delivered message (for the
	// space-time diagrams of Figures 1-4). Guarded by mu — the delivery
	// loop starts before SetTracer can run.
	tracer func(at time.Time, env *wire.Envelope)

	// drops counts messages dropped by the model (loss, partitions,
	// crashed nodes) or by full receiver buffers; read via Drops.
	drops atomic.Uint64
}

// ErrClosed is returned by operations on a closed network or endpoint.
var ErrClosed = errors.New("transport: closed")

type delivery struct {
	at   time.Time
	seq  uint64 // tiebreaker: preserves enqueue order at equal times
	env  *wire.Envelope
	dest *Endpoint
}

type deliveryHeap []delivery

func (h deliveryHeap) Len() int { return len(h) }
func (h deliveryHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h deliveryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x interface{}) { *h = append(*h, x.(delivery)) }
func (h *deliveryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	d := old[n-1]
	old[n-1].env = nil
	*h = old[:n-1]
	return d
}

// NewNetwork creates a fabric whose delivery delays come from model.
func NewNetwork(model *netem.Model) *Network {
	n := &Network{
		model:     model,
		endpoints: make(map[wire.NodeID]*Endpoint),
		lastAt:    make(map[[2]wire.NodeID]time.Time),
		wake:      make(chan struct{}, 1),
	}
	go n.run()
	return n
}

// Model returns the underlying network model (for failure injection).
func (n *Network) Model() *netem.Model { return n.model }

// SetTracer installs an observer for every delivered message (the
// space-time diagrams of Figures 1-4). Call before traffic starts;
// delivery order relative to in-flight messages is unspecified.
func (n *Network) SetTracer(fn func(at time.Time, env *wire.Envelope)) {
	n.mu.Lock()
	n.tracer = fn
	n.mu.Unlock()
}

// Receive buffer depths by endpoint class. Replicas absorb bursts from
// every client and peer at once, so they get a deep buffer. Client and
// session endpoints each carry a handful of outstanding requests; giving
// them the replica-sized buffer too (64k slots ≈ 512KB, zeroed at
// make) turns a gateway-scale session fleet into gigabytes of channel
// backing array and sustained GC pressure — measured as a cliff from
// ~2ms to ~40ms per op once a few thousand sessions were live.
const (
	replicaRecvBuf = 65536
	clientRecvBuf  = 1024
)

// Endpoint registers (or returns the existing) endpoint for id. A closed
// endpoint is replaced with a fresh one, which is how a recovered process
// rejoins the network. Overflowing the receive buffer drops messages,
// which the asynchronous system model permits.
func (n *Network) Endpoint(id wire.NodeID) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if ep, ok := n.endpoints[id]; ok {
		return ep, nil
	}
	buf := replicaRecvBuf
	if id >= wire.ClientIDBase {
		buf = clientRecvBuf
	}
	ep := &Endpoint{id: id, net: n, inbox: NewInbox(buf)}
	n.endpoints[id] = ep
	return ep, nil
}

// Drops returns the number of messages dropped so far.
func (n *Network) Drops() uint64 { return n.drops.Load() }

// Close shuts the fabric down and closes every endpoint's Recv channel.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.queue = nil
	n.mu.Unlock()
	n.kick()
	for _, ep := range eps {
		ep.inbox.Close()
	}
	return nil
}

func (n *Network) kick() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

func (n *Network) send(from wire.NodeID, env *wire.Envelope) {
	// Stamp the sender only when the caller left it blank: a gateway
	// session mux (internal/gateway) pre-stamps logical session IDs so
	// many sessions share one endpoint, and those must survive. The
	// fault model still keys on the physical endpoint.
	if env.From == 0 {
		env.From = from
	}
	delay, ok := n.model.Decide(from, env.To)
	if !ok {
		n.drops.Add(1)
		return
	}
	// Round-trip through the codec: realistic cost, and the receiver
	// never aliases the sender's message. Encoding reuses a pooled
	// buffer; the decode side gets its own exact-size copy whose
	// ownership transfers to the delivered envelope, mirroring how the
	// TCP read loop hands each frame an owned payload.
	bp := wire.GetBuf()
	*bp = wire.EncodeEnvelope((*bp)[:0], env)
	owned := make([]byte, len(*bp))
	copy(owned, *bp)
	wire.PutBuf(bp)
	copyEnv, err := wire.DecodeEnvelopeOwned(owned)
	if err != nil {
		panic(fmt.Sprintf("transport: self-encode failed: %v", err))
	}

	at := time.Now().Add(delay)
	link := [2]wire.NodeID{from, env.To}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	dest, ok := n.endpoints[env.To]
	if !ok {
		n.drops.Add(1)
		n.mu.Unlock()
		return
	}
	if floor := n.lastAt[link]; at.Before(floor) {
		at = floor // FIFO per directed link
	}
	n.lastAt[link] = at
	n.seq++
	wasNext := len(n.queue) == 0 || at.Before(n.queue[0].at)
	heap.Push(&n.queue, delivery{at: at, seq: n.seq, env: copyEnv, dest: dest})
	n.mu.Unlock()
	if wasNext {
		n.kick()
	}
}

// spinBudget is how close to a delivery deadline the scheduler switches
// from timer sleep to yield-spinning. Go timers wake ~1ms late on a busy
// machine, which would swamp the cluster profile's 80 µs link latencies;
// yield-spinning the final stretch delivers with microsecond accuracy
// while still ceding the CPU to runnable protocol goroutines.
const spinBudget = 1500 * time.Microsecond

// run is the delivery loop: it sleeps (then spins) until the earliest
// queued delivery is due and hands envelopes to their destinations.
func (n *Network) run() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return
		}
		now := time.Now()
		var due []delivery
		for len(n.queue) > 0 && !n.queue[0].at.After(now) {
			due = append(due, heap.Pop(&n.queue).(delivery))
		}
		// Purge FIFO floors that can no longer bind: a floor in the past
		// is dominated by any future send's at = now+delay. Without this
		// the map keeps one entry per directed link ever used, which a
		// churning session fleet turns into unbounded growth.
		if now.Sub(n.floorSwept) > 5*time.Second {
			n.floorSwept = now
			for link, at := range n.lastAt {
				if at.Before(now) {
					delete(n.lastAt, link)
				}
			}
		}
		var wait time.Duration = time.Hour
		if len(n.queue) > 0 {
			wait = n.queue[0].at.Sub(now)
		}
		tracer := n.tracer
		n.mu.Unlock()

		for _, d := range due {
			if tracer != nil {
				tracer(d.at, d.env)
			}
			// A full endpoint's eviction is a drop, as a real kernel's
			// would be; a closed endpoint's refusal is not counted.
			if d.dest.inbox.Deliver(d.env) == Evicted {
				n.drops.Add(1)
			}
		}

		if wait <= spinBudget {
			// Deadline imminent (or work just delivered): yield and
			// re-check rather than paying timer latency.
			runtime.Gosched()
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait - spinBudget)
		select {
		case <-timer.C:
		case <-n.wake:
		}
	}
}

// Endpoint is one node's attachment to a Network.
type Endpoint struct {
	id  wire.NodeID
	net *Network
	// inbox is the receive side. With a sink set (Sinker), the fabric's
	// delivery goroutine calls it directly, skipping one queue hop (the
	// gateway filters inbound traffic this way).
	inbox *Inbox
}

var _ Transport = (*Endpoint)(nil)
var _ Sinker = (*Endpoint)(nil)
var _ RTTReporter = (*Endpoint)(nil)

// SetSink implements Sinker. Set before traffic starts.
func (ep *Endpoint) SetSink(fn func(*wire.Envelope)) { ep.inbox.SetSink(fn) }

// Local implements Transport.
func (ep *Endpoint) Local() wire.NodeID { return ep.id }

// Send implements Transport.
func (ep *Endpoint) Send(env *wire.Envelope) { ep.net.send(ep.id, env) }

// Recv implements Transport.
func (ep *Endpoint) Recv() <-chan *wire.Envelope { return ep.inbox.Recv() }

// PeerRTT implements RTTReporter from the netem model: the round trip
// is the sum of the two directed links' mean one-way latencies. Where
// the TCP transport has to measure, the fabric can simply ask the model
// — the same figure a long-running ping EWMA would converge to.
func (ep *Endpoint) PeerRTT(peer wire.NodeID) (time.Duration, bool) {
	m := ep.net.model
	rtt := m.MeanLatency(m.ClassOf(ep.id), m.ClassOf(peer)) +
		m.MeanLatency(m.ClassOf(peer), m.ClassOf(ep.id))
	if rtt <= 0 {
		return 0, false
	}
	return rtt, true
}

// Close implements Transport. The endpoint stops receiving; the fabric
// keeps running for other endpoints. The registry slot is released so a
// long-lived network shedding thousands of short-lived session
// endpoints (an open-loop benchmark, a gateway soak) does not
// accumulate dead endpoints and their buffers forever. The slot goes
// first, so a concurrent Endpoint call for the same id builds a fresh
// endpoint instead of returning this closing one.
func (ep *Endpoint) Close() error {
	ep.net.mu.Lock()
	if cur, ok := ep.net.endpoints[ep.id]; ok && cur == ep {
		delete(ep.net.endpoints, ep.id)
	}
	ep.net.mu.Unlock()
	ep.inbox.Close()
	return nil
}
