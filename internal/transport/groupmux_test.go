package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gridrep/internal/metrics"
	"gridrep/internal/wire"
)

// fakeUnder is a scriptable underlying SinkTransport for mux tests:
// inject plays the part of a connection's read loop.
type fakeUnder struct {
	recv chan *wire.Envelope
	sink func(*wire.Envelope)

	mu     sync.Mutex
	sent   []*wire.Envelope
	health func(peer wire.NodeID, up bool)
	closed bool
}

func newFakeUnder() *fakeUnder {
	return &fakeUnder{recv: make(chan *wire.Envelope)}
}

func (f *fakeUnder) SetSink(fn func(*wire.Envelope)) { f.sink = fn }
func (f *fakeUnder) inject(env *wire.Envelope)       { f.sink(env) }

func (f *fakeUnder) Local() wire.NodeID { return 0 }
func (f *fakeUnder) Send(env *wire.Envelope) {
	f.mu.Lock()
	f.sent = append(f.sent, env)
	f.mu.Unlock()
}
func (f *fakeUnder) Recv() <-chan *wire.Envelope { return f.recv }
func (f *fakeUnder) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.closed {
		f.closed = true
		close(f.recv)
	}
	return nil
}
func (f *fakeUnder) SetHealth(fn func(peer wire.NodeID, up bool)) {
	f.mu.Lock()
	f.health = fn
	f.mu.Unlock()
}

func (f *fakeUnder) sentEnvs() []*wire.Envelope {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*wire.Envelope(nil), f.sent...)
}

// muxCounters publishes m's own instruments into a fresh registry, as a
// sharded node does on its shared one, and returns a reader for them.
func muxCounters(m *GroupMux) func(name string) int64 {
	reg := metrics.NewRegistry()
	m.RegisterMetrics(reg)
	return func(name string) int64 { return reg.Value("gridrep_groupmux_" + name + "_total") }
}

func muxRecvOne(t *testing.T, tr Transport) *wire.Envelope {
	t.Helper()
	select {
	case env := <-tr.Recv():
		return env
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for envelope")
		return nil
	}
}

// TestGroupMuxDispatchByGroup: inbound peer traffic lands on the
// endpoint named by its group stamp; out-of-range groups are dropped,
// not delivered or panicked on.
func TestGroupMuxDispatchByGroup(t *testing.T) {
	under := newFakeUnder()
	m := NewGroupMux(under, 3, nil)
	defer m.Close()

	for g := uint32(0); g < 3; g++ {
		under.inject(&wire.Envelope{From: 1, Group: g, Msg: &wire.Heartbeat{From: 1, Epoch: uint64(g)}})
	}
	for g := 0; g < 3; g++ {
		env := muxRecvOne(t, m.Group(g))
		if env.Group != uint32(g) || env.Msg.(*wire.Heartbeat).Epoch != uint64(g) {
			t.Fatalf("group %d got %+v", g, env)
		}
	}

	// Unknown group: dropped and counted.
	under.inject(&wire.Envelope{From: 1, Group: 9, Msg: &wire.Heartbeat{From: 1}})
	ctr := muxCounters(m)
	deadline := time.Now().Add(2 * time.Second)
	for ctr("drops") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("out-of-range group never counted as drop")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupMuxSendStampsGroup: outbound envelopes from group g's
// endpoint carry Group == g on the shared link.
func TestGroupMuxSendStampsGroup(t *testing.T) {
	under := newFakeUnder()
	m := NewGroupMux(under, 4, nil)
	defer m.Close()

	m.Group(2).Send(&wire.Envelope{To: 1, Msg: &wire.Heartbeat{From: 0}})
	sent := under.sentEnvs()
	if len(sent) != 1 || sent[0].Group != 2 {
		t.Fatalf("sent = %+v, want one envelope stamped group 2", sent)
	}
}

// TestGroupMuxRoutesClientRequests: unstamped client requests go through
// the route callback; a routing error is answered with StatusCrossGroup
// directly by the mux, reaching no group.
func TestGroupMuxRoutesClientRequests(t *testing.T) {
	under := newFakeUnder()
	routeErr := errors.New("txn spans groups")
	m := NewGroupMux(under, 2, func(req *wire.Request) (uint32, error) {
		if req.Txn != 0 {
			return 0, routeErr
		}
		return 1, nil
	})
	defer m.Close()

	// Routable request: lands on group 1 despite arriving with group 0.
	under.inject(&wire.Envelope{From: wire.ClientIDBase, Msg: &wire.RequestMsg{
		Req: wire.Request{Client: wire.ClientIDBase, Seq: 7, Kind: wire.KindWrite, Op: []byte("put k v")}}})
	env := muxRecvOne(t, m.Group(1))
	if env.Msg.(*wire.RequestMsg).Req.Seq != 7 {
		t.Fatalf("group 1 got %+v", env)
	}

	// Unroutable request: refused with StatusCrossGroup on the wire.
	under.inject(&wire.Envelope{From: wire.ClientIDBase, Msg: &wire.RequestMsg{
		Req: wire.Request{Client: wire.ClientIDBase, Seq: 8, Kind: wire.KindTxnOp, Txn: 3, Op: []byte("put q v")}}})
	deadline := time.Now().Add(2 * time.Second)
	for {
		if sent := under.sentEnvs(); len(sent) > 0 {
			rep := sent[0].Msg.(*wire.ReplyMsg).Rep
			if rep.Status != wire.StatusCrossGroup || rep.Seq != 8 || rep.Client != wire.ClientIDBase {
				t.Fatalf("refusal reply = %+v", rep)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cross-group refusal sent")
		}
		time.Sleep(time.Millisecond)
	}
	if n := muxCounters(m)("cross_group_refusals"); n != 1 {
		t.Fatalf("cross-group refusals = %d, want 1", n)
	}
	select {
	case env := <-m.Group(0).Recv():
		t.Fatalf("refused request leaked to group 0: %+v", env)
	default:
	}
}

// TestGroupMuxHealthFanOut: one shared-link health event reaches every
// subscribed group.
func TestGroupMuxHealthFanOut(t *testing.T) {
	under := newFakeUnder()
	m := NewGroupMux(under, 3, nil)
	defer m.Close()

	var mu sync.Mutex
	events := map[int][]bool{}
	for g := 0; g < 3; g++ {
		g := g
		m.Group(g).(HealthReporter).SetHealth(func(peer wire.NodeID, up bool) {
			mu.Lock()
			events[g] = append(events[g], up)
			mu.Unlock()
		})
	}
	under.mu.Lock()
	fn := under.health
	under.mu.Unlock()
	if fn == nil {
		t.Fatal("mux never subscribed to the shared link's health")
	}
	fn(2, false)
	mu.Lock()
	defer mu.Unlock()
	for g := 0; g < 3; g++ {
		if len(events[g]) != 1 || events[g][0] != false {
			t.Fatalf("group %d events = %v, want one down event", g, events[g])
		}
	}
}

// TestGroupMuxDetachIsolation: closing one group's endpoint (a replica
// Stop) leaves siblings running; traffic for the dead group is counted
// as dropped without panicking the pump.
func TestGroupMuxDetachIsolation(t *testing.T) {
	under := newFakeUnder()
	m := NewGroupMux(under, 2, nil)
	defer m.Close()

	m.Group(0).Close()
	under.inject(&wire.Envelope{From: 1, Group: 0, Msg: &wire.Heartbeat{From: 1}})
	under.inject(&wire.Envelope{From: 1, Group: 1, Msg: &wire.Heartbeat{From: 1, Epoch: 5}})
	if env := muxRecvOne(t, m.Group(1)); env.Msg.(*wire.Heartbeat).Epoch != 5 {
		t.Fatalf("sibling group got %+v", env)
	}
	if muxCounters(m)("drops") == 0 {
		t.Fatal("delivery to detached group not counted as drop")
	}
	// Double close is safe.
	m.Group(0).Close()
}

// TestGroupMuxCloseClosesUnder: Close tears down every group channel and
// the shared transport exactly once.
func TestGroupMuxCloseClosesUnder(t *testing.T) {
	under := newFakeUnder()
	m := NewGroupMux(under, 2, nil)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	under.mu.Lock()
	closed := under.closed
	under.mu.Unlock()
	if !closed {
		t.Fatal("underlying transport not closed")
	}
	for g := 0; g < 2; g++ {
		if _, ok := <-m.Group(g).Recv(); ok {
			t.Fatalf("group %d channel still open", g)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
}
