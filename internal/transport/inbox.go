package transport

import (
	"sync"
	"sync/atomic"

	"gridrep/internal/wire"
)

// Inbox is the one receive queue behind every transport and multiplexer:
// a bounded channel the layer above reads through Recv, or a sink that
// replaces the channel once SetSink is called. The asynchronous model
// (§3.1) lets messages be lost and the protocol retransmits (§3.3), so
// a full inbox never blocks its producer: it evicts the oldest buffered
// envelope — fresh protocol messages supersede stale ones — and says so,
// and each owner counts the drop under its own name.
type Inbox struct {
	sink   atomic.Pointer[func(*wire.Envelope)]
	closed atomic.Bool

	mu sync.Mutex // serializes channel sends against each other and Close
	ch chan *wire.Envelope
}

// Delivery is what Deliver did with an envelope.
type Delivery uint8

const (
	Queued  Delivery = iota // queued, or handed to the sink
	Evicted                 // queued after evicting the oldest buffered envelope
	Refused                 // dropped: the inbox is closed
)

// NewInbox returns an inbox whose channel buffers depth envelopes.
func NewInbox(depth int) *Inbox {
	return &Inbox{ch: make(chan *wire.Envelope, depth)}
}

// Recv returns the channel; it is closed by Close.
func (in *Inbox) Recv() <-chan *wire.Envelope { return in.ch }

// SetSink makes Deliver call fn, lock-free and possibly concurrently,
// instead of queueing. Set it before traffic starts.
func (in *Inbox) SetSink(fn func(*wire.Envelope)) { in.sink.Store(&fn) }

// Deliver hands env to the sink or the channel without blocking. Safe
// for concurrent callers and against a concurrent Close.
func (in *Inbox) Deliver(env *wire.Envelope) Delivery {
	if in.closed.Load() {
		return Refused
	}
	if fn := in.sink.Load(); fn != nil {
		(*fn)(env)
		return Queued
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed.Load() {
		return Refused
	}
	select {
	case in.ch <- env:
		return Queued
	default:
	}
	// Full. Only holders of mu send, so once one envelope leaves —
	// evicted here, or taken by the reader meanwhile — the send below
	// cannot block.
	select {
	case <-in.ch:
		in.ch <- env
		return Evicted
	default:
		in.ch <- env
		return Queued
	}
}

// Close refuses further deliveries and closes the channel; envelopes
// already buffered can still be received. Idempotent.
func (in *Inbox) Close() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.closed.Swap(true) {
		close(in.ch)
	}
}
