package gateway

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrep/internal/metrics"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// fakeUnder is a controllable transport.Transport + Sinker: Sent
// envelopes are recorded, inbound ones injected straight into the sink.
type fakeUnder struct {
	local wire.NodeID
	sink  atomic.Pointer[func(*wire.Envelope)]
	recv  chan *wire.Envelope

	mu     sync.Mutex
	sent   []*wire.Envelope
	closed bool
}

func newFakeUnder() *fakeUnder {
	return &fakeUnder{local: 0, recv: make(chan *wire.Envelope, 16)}
}

func (f *fakeUnder) Local() wire.NodeID { return f.local }

func (f *fakeUnder) Send(env *wire.Envelope) {
	f.mu.Lock()
	f.sent = append(f.sent, env)
	f.mu.Unlock()
}

func (f *fakeUnder) Recv() <-chan *wire.Envelope { return f.recv }

func (f *fakeUnder) Close() error {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		close(f.recv)
	}
	f.mu.Unlock()
	return nil
}

func (f *fakeUnder) SetSink(fn func(*wire.Envelope)) { f.sink.Store(&fn) }

func (f *fakeUnder) inject(env *wire.Envelope) { (*f.sink.Load())(env) }

// sentReplies drains and returns the replies recorded by Send.
func (f *fakeUnder) sentReplies() []wire.Reply {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []wire.Reply
	for _, env := range f.sent {
		if rm, ok := env.Msg.(*wire.ReplyMsg); ok {
			out = append(out, rm.Rep)
		}
	}
	f.sent = nil
	return out
}

// fakeClock is a manual clock for the Config.clock seam.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// collector records what the gateway forwards inward.
type collector struct {
	mu   sync.Mutex
	envs []*wire.Envelope
}

func (c *collector) sink(env *wire.Envelope) {
	c.mu.Lock()
	c.envs = append(c.envs, env)
	c.mu.Unlock()
}

func (c *collector) take() []*wire.Envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.envs
	c.envs = nil
	return out
}

func reqEnv(client wire.NodeID, seq uint64) *wire.Envelope {
	return &wire.Envelope{From: client, To: 0, Msg: &wire.RequestMsg{Req: wire.Request{
		Client: client, Seq: seq, Kind: wire.KindWrite, Op: []byte{1},
	}}}
}

func replyEnv(client wire.NodeID, seq uint64, st wire.ReplyStatus) *wire.Envelope {
	return &wire.Envelope{To: client, Msg: &wire.ReplyMsg{Rep: wire.Reply{
		Client: client, Seq: seq, Status: st, Leader: 0, Result: []byte{42},
	}}}
}

// wake turns a gateway active by pushing one reply through Send, the
// same signal a real leader produces.
func wake(g *Gateway, f *fakeUnder) {
	g.Send(replyEnv(SessionID(0, 999999), 1, wire.StatusOK))
	f.sentReplies()
}

func newTestGateway(t *testing.T, cfg Config) (*Gateway, *fakeUnder, *collector, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	cfg.clock = clk.Now
	f := newFakeUnder()
	g := Wrap(f, cfg)
	c := &collector{}
	g.SetSink(c.sink)
	t.Cleanup(func() { g.Close() })
	return g, f, c, clk
}

// edgeCounters publishes g's instruments into a fresh registry and
// returns a reader for them, named without the gridrep_gateway_ prefix.
func edgeCounters(g *Gateway) func(name string) int64 {
	reg := metrics.NewRegistry()
	g.RegisterMetrics(reg)
	return func(name string) int64 { return reg.Value("gridrep_gateway_" + name) }
}

// TestPassiveForwards: a gateway that has never produced a client reply
// (a follower) is a pure pass-through: no admission state, no sheds.
func TestPassiveForwards(t *testing.T) {
	g, f, c, _ := newTestGateway(t, Config{MaxInFlight: 1})
	for seq := uint64(1); seq <= 10; seq++ {
		f.inject(reqEnv(SessionID(0, 1), seq))
	}
	if got := len(c.take()); got != 10 {
		t.Fatalf("passive gateway forwarded %d of 10", got)
	}
	if reps := f.sentReplies(); len(reps) != 0 {
		t.Fatalf("passive gateway sent %d replies", len(reps))
	}
	gw := edgeCounters(g)
	if a, i, s := gw("admitted_total"), gw("inflight"), gw("sessions"); a != 0 || i != 0 || s != 0 {
		t.Fatalf("passive gateway kept state: admitted/inflight/sessions = %d/%d/%d", a, i, s)
	}
}

// TestBudgetQueueShed: once active, the global budget admits, the fair
// queue parks, and overflow sheds with StatusOverload + a hint.
func TestBudgetQueueShed(t *testing.T) {
	g, f, c, _ := newTestGateway(t, Config{MaxInFlight: 2, QueueLen: 2})
	wake(g, f)

	for n := uint32(1); n <= 6; n++ {
		f.inject(reqEnv(SessionID(0, n), 1))
	}
	if got := len(c.take()); got != 2 {
		t.Fatalf("forwarded %d, want the budget of 2", got)
	}
	gw := edgeCounters(g)
	if a, q, s := gw("admitted_total"), gw("queued_total"), gw("shed_queue_full_total"); a != 2 || q != 2 || s != 2 {
		t.Fatalf("admit/queue/shed = %d/%d/%d, want 2/2/2", a, q, s)
	}
	reps := f.sentReplies()
	if len(reps) != 2 {
		t.Fatalf("%d shed replies, want 2", len(reps))
	}
	for _, r := range reps {
		if r.Status != wire.StatusOverload || r.RetryAfterMS == 0 {
			t.Fatalf("shed reply %+v lacks typed overload + hint", r)
		}
	}

	// Replies free slots and drain the queue in arrival order.
	g.Send(replyEnv(SessionID(0, 1), 1, wire.StatusOK))
	g.Send(replyEnv(SessionID(0, 2), 1, wire.StatusOK))
	drained := c.take()
	if len(drained) != 2 {
		t.Fatalf("drained %d queued requests, want 2", len(drained))
	}
	if d, i := gw("queued"), gw("inflight"); d != 0 || i != 2 {
		t.Fatalf("after drain: queue depth %d, inflight %d; want 0, 2", d, i)
	}
}

// TestDedupWindow: a retry of an answered request is served from the
// edge cache; consensus never sees the duplicate.
func TestDedupWindow(t *testing.T) {
	g, f, c, _ := newTestGateway(t, Config{MaxInFlight: 8})
	wake(g, f)
	sid := SessionID(3, 7)

	f.inject(reqEnv(sid, 1))
	if len(c.take()) != 1 {
		t.Fatal("first request not forwarded")
	}
	g.Send(replyEnv(sid, 1, wire.StatusOK))
	f.sentReplies()

	f.inject(reqEnv(sid, 1)) // retry
	if got := len(c.take()); got != 0 {
		t.Fatalf("retry leaked past the edge (%d forwarded)", got)
	}
	reps := f.sentReplies()
	if len(reps) != 1 || reps[0].Status != wire.StatusOK || reps[0].Seq != 1 || len(reps[0].Result) != 1 {
		t.Fatalf("cached reply wrong: %+v", reps)
	}
	if n := edgeCounters(g)("dedup_hits_total"); n != 1 {
		t.Fatalf("dedup hits = %d", n)
	}

	// Eviction: push dedupWindow new answered requests; the oldest seq
	// falls out and its retry passes through to consensus instead.
	for seq := uint64(2); seq < 2+dedupWindow; seq++ {
		f.inject(reqEnv(sid, seq))
		c.take()
		g.Send(replyEnv(sid, seq, wire.StatusOK))
	}
	f.sentReplies()
	f.inject(reqEnv(sid, 1))
	if got := len(c.take()); got != 1 {
		t.Fatalf("evicted seq should pass through, forwarded %d", got)
	}
}

// TestNotLeaderNotCached: NotLeader clears the slot but is never served
// from the window — the request may still execute on the real leader.
func TestNotLeaderNotCached(t *testing.T) {
	g, f, c, _ := newTestGateway(t, Config{MaxInFlight: 8})
	wake(g, f)
	sid := SessionID(0, 5)

	f.inject(reqEnv(sid, 1))
	c.take()
	g.Send(replyEnv(sid, 1, wire.StatusNotLeader))
	f.sentReplies()
	if n := edgeCounters(g)("inflight"); n != 0 {
		t.Fatalf("NotLeader did not clear the slot: inflight = %d", n)
	}

	// The retry is a dup below the watermark: passed through, not shed,
	// not answered from cache.
	f.inject(reqEnv(sid, 1))
	if len(c.take()) != 1 {
		t.Fatal("retry after NotLeader must pass through")
	}
	if reps := f.sentReplies(); len(reps) != 0 {
		t.Fatalf("retry after NotLeader answered from cache: %+v", reps)
	}
}

// TestInFlightRetransmitPassesThrough: protocol-level rebroadcasts of an
// unanswered request bypass admission without double-counting budget.
func TestInFlightRetransmitPassesThrough(t *testing.T) {
	g, f, c, _ := newTestGateway(t, Config{MaxInFlight: 1, QueueLen: 1})
	wake(g, f)
	sid := SessionID(0, 9)

	f.inject(reqEnv(sid, 1))
	f.inject(reqEnv(sid, 1))
	f.inject(reqEnv(sid, 1))
	if got := len(c.take()); got != 3 {
		t.Fatalf("forwarded %d, want 3 (1 admit + 2 passthrough)", got)
	}
	gw := edgeCounters(g)
	if a, d, i := gw("admitted_total"), gw("dup_passthrough_total"), gw("inflight"); a != 1 || d != 2 || i != 1 {
		t.Fatalf("admit/dup/inflight = %d/%d/%d", a, d, i)
	}
	if reps := f.sentReplies(); len(reps) != 0 {
		t.Fatalf("retransmit shed: %+v", reps)
	}
}

// TestTokenBucketThrottle: a tenant over its rate is shed with the
// time-to-next-token hint while other tenants are untouched.
func TestTokenBucketThrottle(t *testing.T) {
	g, f, c, clk := newTestGateway(t, Config{
		MaxInFlight: 100, TenantRate: 10, TenantBurst: 2,
	})
	wake(g, f)

	// Burst of 3 from tenant 1: two admitted, third throttled.
	for n := uint32(1); n <= 3; n++ {
		f.inject(reqEnv(SessionID(1, n), 1))
	}
	if got := len(c.take()); got != 2 {
		t.Fatalf("forwarded %d, want burst of 2", got)
	}
	reps := f.sentReplies()
	if len(reps) != 1 || reps[0].Status != wire.StatusOverload {
		t.Fatalf("throttle reply: %+v", reps)
	}
	// 10 tokens/s → next token ≤ 100ms away.
	if reps[0].RetryAfterMS == 0 || reps[0].RetryAfterMS > 100 {
		t.Fatalf("throttle hint %dms, want (0,100]", reps[0].RetryAfterMS)
	}
	// Tenant 2 is unaffected.
	f.inject(reqEnv(SessionID(2, 1), 1))
	if len(c.take()) != 1 {
		t.Fatal("tenant 2 throttled by tenant 1's bucket")
	}
	// After the hint elapses the bucket has refilled.
	clk.Advance(150 * time.Millisecond)
	f.inject(reqEnv(SessionID(1, 3), 1))
	if len(c.take()) != 1 {
		t.Fatal("tenant 1 still throttled after refill")
	}
}

// TestInFlightTTLExpiry: admissions that never see a reply (leadership
// moved away) release their budget after the TTL.
func TestInFlightTTLExpiry(t *testing.T) {
	g, f, c, clk := newTestGateway(t, Config{MaxInFlight: 2})
	wake(g, f)

	f.inject(reqEnv(SessionID(0, 1), 1))
	f.inject(reqEnv(SessionID(0, 2), 1))
	c.take()
	gw := edgeCounters(g)
	if n := gw("inflight"); n != 2 {
		t.Fatalf("inflight = %d", n)
	}
	clk.Advance(inFlightTTL + time.Second)
	g.sweep(clk.Now())
	if i, e := gw("inflight"), gw("expired_inflight_total"); i != 0 || e != 2 {
		t.Fatalf("after TTL: inflight %d, expired %d; want 0, 2", i, e)
	}
	// The freed budget admits again (the gateway is passive now — the
	// fake clock advanced past activeWindow — so re-activate first).
	wake(g, f)
	f.inject(reqEnv(SessionID(0, 3), 1))
	if len(c.take()) != 1 {
		t.Fatal("budget not released by expiry")
	}
}

// TestQueueAgedShed: parked requests older than the TTL are shed with a
// typed overload reply instead of rotting in the queue.
func TestQueueAgedShed(t *testing.T) {
	g, f, c, clk := newTestGateway(t, Config{MaxInFlight: 1, QueueLen: 4})
	wake(g, f)

	f.inject(reqEnv(SessionID(0, 1), 1)) // takes the slot
	f.inject(reqEnv(SessionID(0, 2), 1)) // parks
	c.take()
	clk.Advance(inFlightTTL + time.Second)
	g.sweep(clk.Now())
	gw := edgeCounters(g)
	if a, d := gw("shed_queue_aged_total"), gw("queued"); a != 1 || d != 0 {
		t.Fatalf("aged shed: shed %d, queue depth %d; want 1, 0", a, d)
	}
	reps := f.sentReplies()
	if len(reps) != 1 || reps[0].Status != wire.StatusOverload || reps[0].Client != SessionID(0, 2) {
		t.Fatalf("aged shed replies: %+v", reps)
	}
}

// TestNonRequestPassthrough: peer consensus traffic is untouched in
// both directions, active or not.
func TestNonRequestPassthrough(t *testing.T) {
	g, f, c, _ := newTestGateway(t, Config{MaxInFlight: 1})
	wake(g, f)
	if g.Local() != f.local {
		t.Fatalf("Local() = %v, want the wrapped transport's %v", g.Local(), f.local)
	}
	f.inject(&wire.Envelope{From: 1, To: 0, Msg: &wire.Prepare{Bal: wire.Ballot{Round: 3, Node: 1}}})
	in := c.take()
	if len(in) != 1 {
		t.Fatalf("peer message filtered: %d", len(in))
	}
	g.Send(&wire.Envelope{To: 1, Msg: &wire.Commit{Bal: wire.Ballot{Round: 3, Node: 1}, Index: 9}})
	f.mu.Lock()
	n := len(f.sent)
	f.mu.Unlock()
	if n != 1 {
		t.Fatalf("outbound peer message filtered: %d", n)
	}
}

// TestSessionIDTenant: the ID packing round-trips and legacy client IDs
// are tenant 0.
func TestSessionIDTenant(t *testing.T) {
	cases := []struct {
		tenant uint8
		n      uint32
	}{{0, 0}, {0, 1}, {1, 0}, {7, 12345}, {MaxTenant, MaxSessions - 1}}
	for _, tc := range cases {
		id := SessionID(tc.tenant, tc.n)
		if !id.IsClient() {
			t.Fatalf("SessionID(%d,%d)=%v not in client space", tc.tenant, tc.n, id)
		}
		if got := TenantOf(id); got != tc.tenant {
			t.Fatalf("TenantOf(SessionID(%d,%d)) = %d", tc.tenant, tc.n, got)
		}
	}
	if TenantOf(wire.ClientIDBase+7) != 0 {
		t.Fatal("legacy client IDs must land in tenant 0")
	}
	if TenantOf(2) != 0 {
		t.Fatal("replica IDs must map to tenant 0")
	}
	// No overlap across tenants for the same n.
	if SessionID(1, 5) == SessionID(2, 5) {
		t.Fatal("tenant collision")
	}
}

var _ transport.Transport = (*Gateway)(nil)
var _ transport.Sinker = (*Gateway)(nil)
var _ transport.HealthReporter = (*Gateway)(nil)
var _ transport.Transport = (*sessionEP)(nil)
