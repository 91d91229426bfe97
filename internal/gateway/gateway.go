// Package gateway is the client-facing edge of a replica process
// (DESIGN.md §15). It wraps the process transport and interposes on
// exactly two flows: inbound client requests and outbound client
// replies. Everything else — peer consensus traffic, heartbeats,
// catch-up — passes through untouched on the hot path with no locking.
//
// The edge provides three protections the consensus layer should never
// have to pay for:
//
//   - Admission control: a token bucket per tenant plus one global
//     in-flight budget. When the budget is exhausted, requests wait in
//     per-tenant fair queues (round-robin, one request per turn); when
//     those fill, the gateway sheds at the edge with a typed
//     StatusOverload reply carrying a retry-after hint, instead of
//     letting work queue on an event loop.
//   - Idempotent retry: a bounded per-session dedup window caches
//     terminal replies, so a client retry of an answered request is
//     served from the edge without touching consensus. (Across leader
//     switches the new leader's log-rebuilt reply cache is the
//     authority; the window is an edge cache layered on top.)
//   - Session multiplexing (session.go): many logical sessions share
//     one connection, each with its own session ID and sequence space.
//
// Only a replying replica enforces admission. Followers never answer
// clients — their cores silently ignore client writes — so a gateway
// that has not produced a client reply within activeWindow is passive
// and forwards everything. This keeps follower sheds from polluting a
// client's broadcast (a ClientMux session's routed write reaches the
// leader alone), costs nothing at cold start (the first requests
// pass through, the leader answers, its gateway turns active), and
// means in-flight accounting only happens where replies actually clear
// it.
package gateway

import (
	"sync"
	"sync/atomic"
	"time"

	"gridrep/internal/metrics"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// Config is what a deployment sets on the edge: replicad's four gateway
// flags. The zero value gets sensible defaults from withDefaults; a zero
// TenantRate disables the per-tenant bucket while keeping the global
// budget.
type Config struct {
	// MaxInFlight is the global admitted-but-unanswered budget (default
	// 64). Size it from batch headroom (one wave is in flight): admitting
	// more than the consensus layer can have in flight only grows queues.
	MaxInFlight int
	// TenantRate is the per-tenant token refill rate in requests/second.
	// 0 disables per-tenant throttling.
	TenantRate float64
	// TenantBurst is the token bucket capacity (default max(16, MaxInFlight)).
	TenantBurst int
	// QueueLen bounds each tenant's fair queue (default 2×MaxInFlight).
	QueueLen int

	clock func() time.Time // the package tests' seam; nil means time.Now
}

// The edge's timings and window size; no deployment sets them.
const (
	// retryAfter is the base shed backoff hint; hintLocked scales it
	// with queue depth.
	retryAfter = 50 * time.Millisecond
	// inFlightTTL expires admissions that will never see a reply — e.g.
	// admitted just before leadership moved away — and sheds queued
	// requests that have waited longer.
	inFlightTTL = 2 * time.Second
	// dedupWindow is the number of terminal replies cached per session.
	dedupWindow = 32
	// sessionTTL evicts idle session state.
	sessionTTL = 60 * time.Second
	// activeWindow is how long after its last client reply a gateway
	// keeps enforcing admission. A gateway that has not replied within
	// it is passive: a pure pass-through.
	activeWindow = time.Second
)

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = c.MaxInFlight
		if c.TenantBurst < 16 {
			c.TenantBurst = 16
		}
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 2 * c.MaxInFlight
	}
	if c.clock == nil {
		c.clock = time.Now
	}
	return c
}

// entry is one admitted-but-unanswered request. counted marks entries
// that occupy a budget slot (forwarded inward); queued entries flip to
// counted when the fair queue drains them.
type entry struct {
	at      time.Time
	counted bool
}

// session is the per-session edge state: in-flight admissions, the
// dedup window (a seq→reply map plus a fixed eviction ring), and the
// highest sequence number ever admitted. The window caches only
// terminal statuses; sheds and NotLeader are never cached because the
// request may still execute later.
type session struct {
	tenant   uint8
	lastSeen time.Time
	maxSeq   uint64
	inflight map[uint64]entry
	window   map[uint64]*wire.Reply
	ring     []uint64
	pos      int
}

func (s *session) cache(rep *wire.Reply) {
	cp := *rep
	if cp.Result != nil {
		cp.Result = append([]byte(nil), cp.Result...)
	}
	if _, ok := s.window[cp.Seq]; ok {
		s.window[cp.Seq] = &cp
		return
	}
	if len(s.ring) < dedupWindow {
		s.ring = append(s.ring, cp.Seq)
	} else {
		delete(s.window, s.ring[s.pos])
		s.ring[s.pos] = cp.Seq
		s.pos = (s.pos + 1) % dedupWindow
	}
	s.window[cp.Seq] = &cp
}

// queuedReq is one request parked in a tenant's fair queue.
type queuedReq struct {
	env *wire.Envelope
	at  time.Time
}

// tenant is the per-tenant admission state: the token bucket and the
// fair queue.
type tenant struct {
	tokens float64
	last   time.Time
	queue  []queuedReq
	active bool
}

func (t *tenant) refill(now time.Time, rate, burst float64) {
	if rate <= 0 {
		return
	}
	t.tokens += rate * now.Sub(t.last).Seconds()
	if t.tokens > burst {
		t.tokens = burst
	}
	t.last = now
}

// Gateway wraps a transport.Transport. Wrap it around the process
// transport: TCP/Endpoint → Gateway → core.
type Gateway struct {
	under transport.SinkTransport
	cfg   Config

	inbox *transport.Inbox

	lastReplyNS atomic.Int64 // wall clock of the last outbound client reply

	mu       sync.Mutex
	sessions map[wire.NodeID]*session
	tenants  map[uint8]*tenant
	rr       []uint8 // active-tenant ring for round robin
	rrIdx    int
	inflight int
	queuedN  int

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	admitted      metrics.Counter
	queuedTot     metrics.Counter
	shedThrottle  metrics.Counter
	shedQueueFull metrics.Counter
	shedQueueAged metrics.Counter
	dedupHits     metrics.Counter
	dupPass       metrics.Counter
	expiredTot    metrics.Counter
	drops         metrics.Counter // recv overflow (or delivery after Close)
}

// gatewayRecvBuf is a replica inbox's depth: one event loop drains it.
const gatewayRecvBuf = 65536

// Wrap interposes the gateway on under through its sink: inbound
// envelopes are filtered on under's delivery goroutines (TCP's decode
// stages, the fabric's delivery loop) with no extra hop.
func Wrap(under transport.SinkTransport, cfg Config) *Gateway {
	g := &Gateway{
		under:    under,
		cfg:      cfg.withDefaults(),
		inbox:    transport.NewInbox(gatewayRecvBuf),
		sessions: make(map[wire.NodeID]*session),
		tenants:  make(map[uint8]*tenant),
		stop:     make(chan struct{}),
	}
	under.SetSink(g.inbound)
	g.wg.Add(1)
	go g.sweeper()
	return g
}

// Local implements transport.Transport.
func (g *Gateway) Local() wire.NodeID { return g.under.Local() }

// Recv implements transport.Transport.
func (g *Gateway) Recv() <-chan *wire.Envelope { return g.inbox.Recv() }

// SetSink implements transport.Sinker for the layer above: forwarded
// envelopes go to fn instead of Recv. A core reads Recv; the benchmark
// harness times admission through a sink. Set it before traffic starts.
func (g *Gateway) SetSink(fn func(*wire.Envelope)) { g.inbox.SetSink(fn) }

// SetHealth forwards to the underlying transport when it reports
// link health.
func (g *Gateway) SetHealth(fn func(peer wire.NodeID, up bool)) {
	if hr, ok := g.under.(transport.HealthReporter); ok {
		hr.SetHealth(fn)
	}
}

// Close stops the sweeper, closes the wrapped transport (which
// quiesces its sink callbacks), and closes Recv.
func (g *Gateway) Close() error {
	g.stopOnce.Do(func() { close(g.stop) })
	err := g.under.Close()
	g.wg.Wait()
	g.inbox.Close()
	return err
}

// deliver hands an envelope to the layer above; an eviction from the
// full inbox, or a refusal by the closed one, counts as a drop.
func (g *Gateway) deliver(env *wire.Envelope) {
	if g.inbox.Deliver(env) != transport.Queued {
		g.drops.Add(1)
	}
}

// inbound filters one received envelope. Non-request traffic (all peer
// consensus messages) takes the first branch and pays nothing.
func (g *Gateway) inbound(env *wire.Envelope) {
	rm, ok := env.Msg.(*wire.RequestMsg)
	if !ok {
		g.deliver(env)
		return
	}
	g.handleRequest(env, &rm.Req)
}

// replying reports whether this replica has answered a client within
// the activity window — the signal that it is the one enforcing
// admission (see the package comment).
func (g *Gateway) replying(now time.Time) bool {
	last := g.lastReplyNS.Load()
	return last != 0 && now.UnixNano()-last <= int64(activeWindow)
}

func (g *Gateway) handleRequest(env *wire.Envelope, req *wire.Request) {
	now := g.cfg.clock()
	if !g.replying(now) {
		// Passive edge: a follower (or a not-yet-warm leader). Forward
		// untouched; the core ignores what it should ignore.
		g.deliver(env)
		return
	}

	g.mu.Lock()
	sess := g.session(req.Client, now)

	// 1. Retry of an answered request: serve the cached terminal reply
	// from the edge. Consensus never sees the duplicate.
	if rep, ok := sess.window[req.Seq]; ok {
		cp := *rep
		g.mu.Unlock()
		g.dedupHits.Inc()
		g.under.Send(&wire.Envelope{To: cp.Client, Msg: &wire.ReplyMsg{Rep: cp}})
		return
	}

	// 2. Retransmit of an accepted-but-unanswered request (or a stale
	// seq below the admitted watermark): pass through. The protocol
	// layer owns retransmission and the leader's log-rebuilt reply
	// cache dedups execution; admitting it again would double-count
	// the budget slot.
	if _, ok := sess.inflight[req.Seq]; ok || req.Seq <= sess.maxSeq {
		g.mu.Unlock()
		g.dupPass.Inc()
		g.deliver(env)
		return
	}

	// 3. Fresh request: admission. Token bucket first — a tenant over
	// its rate is shed immediately with the time until its next token.
	tn := g.tenantState(sess.tenant, now)
	tn.refill(now, g.cfg.TenantRate, float64(g.cfg.TenantBurst))
	if g.cfg.TenantRate > 0 {
		if tn.tokens < 1 {
			wait := time.Duration((1 - tn.tokens) / g.cfg.TenantRate * float64(time.Second))
			g.mu.Unlock()
			g.shedThrottle.Inc()
			g.shed(req, wait)
			return
		}
		tn.tokens--
	}

	// Global budget next: admit and forward while slots remain.
	if g.inflight < g.cfg.MaxInFlight {
		sess.inflight[req.Seq] = entry{at: now, counted: true}
		sess.maxSeq = req.Seq
		g.inflight++
		g.mu.Unlock()
		g.admitted.Inc()
		g.deliver(env)
		return
	}

	// Budget exhausted: park in the tenant's fair queue if it has room,
	// shed with a depth-scaled hint otherwise.
	if len(tn.queue) < g.cfg.QueueLen {
		sess.inflight[req.Seq] = entry{at: now}
		sess.maxSeq = req.Seq
		tn.queue = append(tn.queue, queuedReq{env: env, at: now})
		g.queuedN++
		if !tn.active {
			tn.active = true
			g.rr = append(g.rr, sess.tenant)
		}
		g.mu.Unlock()
		g.queuedTot.Inc()
		return
	}
	hint := g.hintLocked()
	g.mu.Unlock()
	g.shedQueueFull.Inc()
	g.shed(req, hint)
}

// hintLocked scales the base retry-after by how deep the backlog is,
// clamped to 5s. Called with g.mu held.
func (g *Gateway) hintLocked() time.Duration {
	h := retryAfter * time.Duration(1+g.queuedN/g.cfg.MaxInFlight)
	if h > 5*time.Second {
		h = 5 * time.Second
	}
	return h
}

// shed answers req with StatusOverload and a retry-after hint. The
// request was not executed; retrying the same sequence number is safe.
func (g *Gateway) shed(req *wire.Request, wait time.Duration) {
	ms := wait.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	g.under.Send(&wire.Envelope{To: req.Client, Msg: &wire.ReplyMsg{Rep: wire.Reply{
		Client:       req.Client,
		Seq:          req.Seq,
		Status:       wire.StatusOverload,
		RetryAfterMS: uint32(ms),
	}}})
}

func (g *Gateway) session(id wire.NodeID, now time.Time) *session {
	s, ok := g.sessions[id]
	if !ok {
		s = &session{
			tenant:   TenantOf(id),
			inflight: make(map[uint64]entry),
			window:   make(map[uint64]*wire.Reply),
		}
		g.sessions[id] = s
	}
	s.lastSeen = now
	return s
}

func (g *Gateway) tenantState(id uint8, now time.Time) *tenant {
	t, ok := g.tenants[id]
	if !ok {
		t = &tenant{tokens: float64(g.cfg.TenantBurst), last: now}
		g.tenants[id] = t
	}
	return t
}

// Send implements transport.Transport. Outbound client replies clear
// their in-flight slot, feed the dedup window, and trigger a queue
// drain; everything else passes straight through.
func (g *Gateway) Send(env *wire.Envelope) {
	if rm, ok := env.Msg.(*wire.ReplyMsg); ok {
		g.observeReply(&rm.Rep)
	}
	g.under.Send(env)
}

func (g *Gateway) observeReply(rep *wire.Reply) {
	now := g.cfg.clock()
	g.lastReplyNS.Store(now.UnixNano())
	g.mu.Lock()
	sess, ok := g.sessions[rep.Client]
	if !ok {
		g.mu.Unlock()
		return
	}
	sess.lastSeen = now
	if e, ok := sess.inflight[rep.Seq]; ok {
		delete(sess.inflight, rep.Seq)
		if e.counted {
			g.inflight--
		}
	}
	switch rep.Status {
	case wire.StatusOK, wire.StatusAborted, wire.StatusError:
		sess.cache(rep)
	}
	out := g.drainLocked()
	g.mu.Unlock()
	for _, e := range out {
		g.deliver(e)
	}
}

// drainLocked releases parked requests while budget slots remain, round
// robin across tenants, one request per turn. Called with g.mu held;
// returns the envelopes to forward after unlock.
func (g *Gateway) drainLocked() []*wire.Envelope {
	var out []*wire.Envelope
	for g.inflight < g.cfg.MaxInFlight && len(g.rr) > 0 {
		if g.rrIdx >= len(g.rr) {
			g.rrIdx = 0
		}
		tn := g.tenants[g.rr[g.rrIdx]]
		var q queuedReq
		if len(tn.queue) > 0 { // a sweep may have aged the queue empty
			q, tn.queue = tn.queue[0], tn.queue[1:]
			g.queuedN--
		}
		if len(tn.queue) == 0 {
			tn.active = false
			g.rr = append(g.rr[:g.rrIdx], g.rr[g.rrIdx+1:]...)
		} else {
			g.rrIdx++
		}
		if q.env == nil {
			continue
		}
		req := &q.env.Msg.(*wire.RequestMsg).Req
		sess := g.sessions[req.Client]
		if sess == nil {
			continue
		}
		e, ok := sess.inflight[req.Seq]
		if !ok || e.counted {
			// Answered (or forwarded via a retransmit) while parked.
			continue
		}
		e.counted = true
		sess.inflight[req.Seq] = e
		g.inflight++
		out = append(out, q.env)
	}
	return out
}

// sweeper periodically expires in-flight admissions that will never see
// a reply (leadership moved away mid-flight), sheds queued requests
// older than the TTL, and evicts idle sessions.
func (g *Gateway) sweeper() {
	defer g.wg.Done()
	tk := time.NewTicker(inFlightTTL / 4)
	defer tk.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tk.C:
			g.sweep(g.cfg.clock())
		}
	}
}

func (g *Gateway) sweep(now time.Time) {
	var sheds []*wire.Request
	g.mu.Lock()
	for id, sess := range g.sessions {
		for seq, e := range sess.inflight {
			if e.counted && now.Sub(e.at) > inFlightTTL {
				delete(sess.inflight, seq)
				g.inflight--
				g.expiredTot.Add(1)
			}
		}
		if len(sess.inflight) == 0 && now.Sub(sess.lastSeen) > sessionTTL {
			delete(g.sessions, id)
		}
	}
	for _, tn := range g.tenants {
		keep := tn.queue[:0]
		for _, q := range tn.queue {
			if now.Sub(q.at) > inFlightTTL {
				req := &q.env.Msg.(*wire.RequestMsg).Req
				if sess := g.sessions[req.Client]; sess != nil {
					delete(sess.inflight, req.Seq)
				}
				g.queuedN--
				g.shedQueueAged.Add(1)
				sheds = append(sheds, req)
				continue
			}
			keep = append(keep, q)
		}
		tn.queue = keep
	}
	hint := g.hintLocked()
	out := g.drainLocked()
	g.mu.Unlock()
	for _, req := range sheds {
		g.shed(req, hint)
	}
	for _, e := range out {
		g.deliver(e)
	}
}

// RegisterMetrics implements metrics.Instrumented: the wrapped
// transport's instruments first (the gateway replaces it in the probe
// chain, so it must keep the transport visible), then the gateway's
// own.
func (g *Gateway) RegisterMetrics(reg *metrics.Registry) {
	if ins, ok := g.under.(metrics.Instrumented); ok {
		ins.RegisterMetrics(reg)
	}
	reg.RegisterCounter("gridrep_gateway_admitted_total",
		"requests admitted past the edge into the consensus layer", &g.admitted)
	reg.RegisterCounter("gridrep_gateway_queued_total",
		"requests parked in a tenant fair queue before admission", &g.queuedTot)
	reg.RegisterCounter("gridrep_gateway_shed_throttle_total",
		"requests shed because the tenant token bucket was empty", &g.shedThrottle)
	reg.RegisterCounter("gridrep_gateway_shed_queue_full_total",
		"requests shed because the tenant fair queue was full", &g.shedQueueFull)
	reg.RegisterCounter("gridrep_gateway_shed_queue_aged_total",
		"queued requests shed after waiting longer than the in-flight TTL", &g.shedQueueAged)
	reg.RegisterCounter("gridrep_gateway_dedup_hits_total",
		"retries answered from the per-session dedup window", &g.dedupHits)
	reg.RegisterCounter("gridrep_gateway_dup_passthrough_total",
		"retransmits of in-flight requests passed through unadmitted", &g.dupPass)
	reg.RegisterCounter("gridrep_gateway_expired_inflight_total",
		"admitted requests expired by TTL with no reply observed", &g.expiredTot)
	reg.RegisterCounter("gridrep_gateway_recv_overflow_total",
		"envelopes dropped by the edge's full (or closed) receive buffer", &g.drops)
	reg.RegisterGaugeFunc("gridrep_gateway_inflight",
		"admitted requests currently awaiting a reply", func() int64 {
			g.mu.Lock()
			v := g.inflight
			g.mu.Unlock()
			return int64(v)
		})
	reg.RegisterGaugeFunc("gridrep_gateway_queued",
		"requests currently parked in tenant fair queues", func() int64 {
			g.mu.Lock()
			v := g.queuedN
			g.mu.Unlock()
			return int64(v)
		})
	reg.RegisterGaugeFunc("gridrep_gateway_sessions",
		"live client sessions tracked at the edge", func() int64 {
			g.mu.Lock()
			v := len(g.sessions)
			g.mu.Unlock()
			return int64(v)
		})
}
