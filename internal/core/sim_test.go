package core

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

// The simulator (DESIGN.md §20) is the second driver of the step
// functions: one seeded scheduler over N replicas on a virtual clock.
// Every envelope goes through the codec as on transport.Network, delay
// and loss come from netem.Model.Decide, delivery is FIFO per directed
// link, and each replica's persist jobs are flushed by a staged
// in-memory store whose crash drops what was never flushed. Replicas are
// never Started, so no read pool runs. Nothing here reads the wall clock,
// so a seed is a run.

// simStore is a storage.Flusher over a storage.Mem that holds only what
// was flushed: staged records wait in order and a crash drops them.
type simStore struct {
	durable  *storage.Mem
	promised wire.Ballot // the durable promise, for the vouching check
	staged   []func()
	buffered bool
}

func newSimStore() *simStore { return &simStore{durable: storage.NewMem()} }

// reopen is the store a restarted replica sees: the durable records only.
func (s *simStore) reopen() *simStore { return &simStore{durable: s.durable, promised: s.promised} }

func (s *simStore) stage(f func()) error {
	if s.buffered {
		s.staged = append(s.staged, f)
	} else {
		f()
	}
	return nil
}

func (s *simStore) Load() (*storage.PersistentState, error) { return s.durable.Load() }
func (s *simStore) SetPromised(b wire.Ballot) error {
	return s.stage(func() {
		s.durable.SetPromised(b)
		if s.promised.Less(b) {
			s.promised = b
		}
	})
}
func (s *simStore) PutAccepted(es []wire.Entry, max wire.Ballot) error {
	es = append([]wire.Entry(nil), es...)
	return s.stage(func() { s.durable.PutAccepted(es, max) })
}
func (s *simStore) SetChosen(idx uint64) error { return s.stage(func() { s.durable.SetChosen(idx) }) }
func (s *simStore) Compact(from uint64) error  { return s.stage(func() { s.durable.Compact(from) }) }
func (s *simStore) SaveSnapshot(snap []byte, at uint64) error {
	return s.stage(func() { s.durable.SaveSnapshot(snap, at) })
}
func (s *simStore) SetMembers(m, l []wire.NodeID, at uint64) error {
	m, l = append([]wire.NodeID(nil), m...), append([]wire.NodeID(nil), l...)
	return s.stage(func() { s.durable.SetMembers(m, l, at) })
}
func (s *simStore) PruneTo(keep uint64) error { return s.stage(func() { s.durable.PruneTo(keep) }) }
func (s *simStore) Close() error              { return nil }
func (s *simStore) SetBuffered(on bool)       { s.buffered = on }
func (s *simStore) Staged() bool              { return len(s.staged) > 0 }
func (s *simStore) Flush() error {
	for _, f := range s.staged {
		f()
	}
	s.staged = nil
	return nil
}

// simConfig shapes one simulated cluster. Zero fields take the defaults
// newSim fills in.
type simConfig struct {
	n       int
	seed    int64
	opts    Options
	service func(id wire.NodeID, inc int) service.Service // default: KV
	link    netem.Latency                                 // every directed link
	fsync   [2]time.Duration                              // flush latency range
	retry   time.Duration                                 // client rebroadcast interval

	// profile, when set, replaces link: every class pair's link is fixed
	// at the profile's mean one-way delay, which is what the §3.4 model
	// assumes, and the options are filled from the profile as
	// cluster.New fills them.
	profile *netem.Profile
	// noDisk makes every flush complete the instant it is due, as on the
	// paper's testbed, which kept no state on disk.
	noDisk bool
	// log, when set, receives every replica's role transitions and
	// anomalies.
	log *log.Logger
	// cost, when set, is the replica service-time model: each delivered
	// envelope keeps its replica busy for cost(r, env); inputs that
	// arrive meanwhile wait and then run as one burst, and a burst's
	// sends and flush leave when its work is done. Ticks are free.
	cost func(r *Replica, env *wire.Envelope) time.Duration
}

// simNode is one replica slot: the running incarnation (nil while
// crashed), its store, and the persist jobs handed out but not flushed.
type simNode struct {
	id       wire.NodeID
	r        *Replica
	store    *simStore
	inc      int
	jobs     []persistJob
	flushing bool

	// The service-time model's state: inputs waiting for the replica,
	// when its current burst's work is done, and whether a burst is
	// scheduled.
	backlog   []*wire.Envelope
	busyUntil time.Time
	waking    bool
}

// simEvent is a delivery (data set) or a scheduled action (fn set).
type simEvent struct {
	at       time.Time
	seq      uint64
	from, to wire.NodeID
	inc      int // the target replica's incarnation at send
	data     []byte
	fn       func()
}

type simHeap []*simEvent

func (h simHeap) Len() int { return len(h) }
func (h simHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h simHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *simHeap) Push(x interface{}) { *h = append(*h, x.(*simEvent)) }
func (h *simHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// simOut is one send made during the current event, already encoded.
type simOut struct {
	from, to wire.NodeID
	data     []byte
}

type sim struct {
	t       testing.TB
	cfg     simConfig
	rng     *rand.Rand
	model   *netem.Model
	now     time.Time
	nodes   []*simNode
	clients map[wire.NodeID]*simClient
	events  simHeap
	seq     uint64
	floor   map[[2]wire.NodeID]time.Time
	out     []simOut

	// trace, when set, receives (virtual time, from, to, encoded bytes)
	// for every delivery.
	trace *bytes.Buffer
	// watch, when set, runs after every event: scripted schedules use it
	// to act the moment a condition holds.
	watch func()
	// drop, when set, sees every send and loses the ones it returns true
	// for: scripted schedules use it to lose one message.
	drop func(from wire.NodeID, env *wire.Envelope) bool
	// violations lists every message that claimed durable acceptor state
	// its sender had not flushed (durability before vouching).
	violations []string
	steps      int

	// lag is the current burst's work under the service-time model: its
	// sends and its flush leave that much after now.
	lag time.Duration
	// Protocol cost: messages and encoded bytes sent, per message type,
	// and flushes completed, over every replica.
	msgs, bytes map[wire.MsgType]uint64
	flushes     int
	// retired holds every crashed incarnation, whose counters still
	// count toward the run's protocol cost.
	retired []*Replica
}

var simEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newSim(t testing.TB, cfg simConfig) *sim {
	if cfg.n == 0 {
		cfg.n = 3
	}
	if cfg.service == nil {
		cfg.service = func(wire.NodeID, int) service.Service { return service.NewKV() }
	}
	if cfg.link == (netem.Latency{}) {
		cfg.link = netem.Latency{Base: 500 * time.Microsecond, Jitter: time.Millisecond}
	}
	if cfg.fsync == [2]time.Duration{} {
		cfg.fsync = [2]time.Duration{200 * time.Microsecond, 2 * time.Millisecond}
	}
	if cfg.retry == 0 {
		cfg.retry = 50 * time.Millisecond
	}
	if p := cfg.profile; p != nil {
		cfg.opts.FillDefaults(p.MaxOneWay, p.CommitFlushDelay)
	}
	if cfg.opts.HeartbeatInterval == 0 {
		cfg.opts.HeartbeatInterval = 5 * time.Millisecond
	}
	s := &sim{
		t:       t,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		model:   netem.NewModel(cfg.seed, nil),
		now:     simEpoch,
		clients: make(map[wire.NodeID]*simClient),
		floor:   make(map[[2]wire.NodeID]time.Time),
		msgs:    make(map[wire.MsgType]uint64),
		bytes:   make(map[wire.MsgType]uint64),
	}
	if p := cfg.profile; p != nil {
		s.model = netem.NewModel(cfg.seed, p.ClassOf)
		means := p.NewModel(cfg.seed)
		for a := netem.Class(0); a < 16; a++ {
			for b := netem.Class(0); b < 16; b++ {
				s.model.SetLink(a, b, netem.Latency{Base: means.MeanLatency(a, b)})
			}
		}
	} else {
		for _, a := range []netem.Class{netem.ClassReplica, netem.ClassClient} {
			for _, b := range []netem.Class{netem.ClassReplica, netem.ClassClient} {
				s.model.SetLink(a, b, cfg.link)
			}
		}
	}
	for i := 0; i < cfg.n; i++ {
		n := &simNode{id: wire.NodeID(i), store: newSimStore()}
		s.nodes = append(s.nodes, n)
		s.boot(n)
	}
	return s
}

// simEndpoint is a replica's transport: sends join the current event's
// outbox, encoded at once exactly as transport.Network encodes them.
type simEndpoint struct {
	s  *sim
	id wire.NodeID
}

func (e simEndpoint) Local() wire.NodeID          { return e.id }
func (e simEndpoint) Send(env *wire.Envelope)     { e.s.send(e.id, env) }
func (e simEndpoint) Recv() <-chan *wire.Envelope { return nil }
func (e simEndpoint) Close() error                { return nil }

func (s *sim) peers() []wire.NodeID {
	ids := make([]wire.NodeID, s.cfg.n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	return ids
}

func (s *sim) boot(n *simNode) {
	r, err := New(Config{
		ID:        n.id,
		Peers:     s.peers(),
		Service:   s.cfg.service(n.id, n.inc),
		Store:     n.store,
		Transport: simEndpoint{s, n.id},
		Options:   s.cfg.opts,
		Logger:    s.cfg.log,
	})
	if err != nil {
		s.t.Fatalf("replica %d: %v", n.id, err)
	}
	n.r = r
}

// send stamps, checks and encodes one outgoing envelope.
func (s *sim) send(from wire.NodeID, env *wire.Envelope) {
	if env.From == 0 {
		env.From = from
	}
	if !from.IsClient() {
		s.checkDurable(from, env)
	}
	if s.drop != nil && s.drop(from, env) {
		return
	}
	data := wire.EncodeEnvelope(nil, env)
	s.msgs[env.Msg.Type()]++
	s.bytes[env.Msg.Type()] += uint64(len(data))
	s.out = append(s.out, simOut{from: from, to: env.To, data: data})
}

// checkDurable enforces durability before vouching: a Promise, an
// Accepted or a Confirm may leave only once its sender's store has
// flushed a promise at least as high as the ballot it claims.
func (s *sim) checkDurable(from wire.NodeID, env *wire.Envelope) {
	var bal wire.Ballot
	switch m := env.Msg.(type) {
	case *wire.Promise:
		if !m.OK {
			return
		}
		bal = m.Bal
	case *wire.Accepted:
		if !m.OK {
			return
		}
		bal = m.Bal
	case *wire.Confirm:
		bal = m.Bal
	default:
		return
	}
	if durable := s.nodes[from].store.promised; durable.Less(bal) {
		s.violations = append(s.violations, fmt.Sprintf("%v: %d sent %T claiming %v to %d, durable promise %v",
			s.now.Sub(simEpoch), from, env.Msg, bal, env.To, durable))
	}
}

// flushOut routes the current event's sends. Ordering them stably by
// destination keeps Go's map iteration order — the one source of
// nondeterminism inside a step — out of the network's random draws.
func (s *sim) flushOut() {
	sort.SliceStable(s.out, func(i, j int) bool { return s.out[i].to < s.out[j].to })
	for _, o := range s.out {
		delay, ok := s.model.Decide(o.from, o.to)
		if !ok {
			continue
		}
		at := s.now.Add(s.lag + delay)
		link := [2]wire.NodeID{o.from, o.to}
		if floor := s.floor[link]; at.Before(floor) {
			at = floor // FIFO per directed link
		}
		s.floor[link] = at
		ev := &simEvent{at: at, from: o.from, to: o.to, data: o.data}
		if !o.to.IsClient() && int(o.to) < len(s.nodes) {
			ev.inc = s.nodes[o.to].inc
		}
		s.push(ev)
	}
	s.out = s.out[:0]
}

func (s *sim) push(ev *simEvent) {
	s.seq++
	ev.seq = s.seq
	heap.Push(&s.events, ev)
}

// after schedules fn at now+d.
func (s *sim) after(d time.Duration, fn func()) { s.push(&simEvent{at: s.now.Add(d), fn: fn}) }

// step runs one step on a live replica, ends its burst, and hands the
// burst's persist job to the flusher.
func (s *sim) step(n *simNode, f func(r *Replica)) {
	f(n.r)
	if n.r.failed {
		s.crash(n.id)
		return
	}
	if job, ok := n.r.endBurst(); ok {
		n.jobs = append(n.jobs, job)
		if !n.flushing {
			n.flushing = true
			inc := n.inc
			d := s.lag
			if !s.cfg.noDisk {
				lo, hi := s.cfg.fsync[0], s.cfg.fsync[1]
				d += lo + time.Duration(s.rng.Int63n(int64(hi-lo)+1))
			}
			s.after(d, func() { s.flush(n, inc) })
		}
	}
}

// flush makes everything staged durable, sends the jobs' deferred
// envelopes, and reports the jobs done — what the persister does.
func (s *sim) flush(n *simNode, inc int) {
	if n.inc != inc {
		return // the replica crashed since: its staged records are gone
	}
	n.store.Flush()
	s.flushes++
	wake := 0
	for _, j := range n.jobs {
		for _, env := range j.envs {
			s.send(n.id, env)
		}
		if j.wake {
			wake++
		}
	}
	n.jobs, n.flushing = nil, false
	if wake > 0 {
		s.step(n, func(r *Replica) { r.durable(s.now, wake) })
	}
}

// crash stops a replica: its in-flight deliveries, pending flush and
// staged records are gone.
func (s *sim) crash(id wire.NodeID) {
	n := s.nodes[id]
	if n.r == nil {
		return
	}
	s.retired = append(s.retired, n.r)
	n.r, n.jobs, n.flushing = nil, nil, false
	n.backlog, n.busyUntil, n.waking = nil, time.Time{}, false
	n.inc++
	n.store = n.store.reopen()
	s.model.SetDown(id, true)
}

// restart boots a crashed replica from its store.
func (s *sim) restart(id wire.NodeID) {
	n := s.nodes[id]
	if n.r != nil {
		return
	}
	s.model.SetDown(id, false)
	s.boot(n)
}

// control runs f as a step on a live replica and routes what it sent.
func (s *sim) control(id wire.NodeID, f func(r *Replica)) {
	if n := s.nodes[id]; n.r != nil {
		s.step(n, func(r *Replica) { r.control(s.now, f) })
		s.flushOut()
	}
}

// next returns the earliest pending work: the head event, or — when a
// replica's deadline comes first — that replica.
func (s *sim) next() (at time.Time, n *simNode) {
	for _, c := range s.nodes {
		if c.r == nil {
			continue
		}
		if d := c.r.deadline(); n == nil || d.Before(at) {
			at, n = d, c
		}
	}
	if len(s.events) > 0 && (n == nil || !s.events[0].at.After(at)) {
		return s.events[0].at, nil
	}
	if at.Before(s.now) {
		at = s.now
	}
	return at, n
}

// advance processes one unit of work if it is due by until.
func (s *sim) advance(until time.Time) bool {
	at, n := s.next()
	if at.After(until) || (n == nil && len(s.events) == 0) {
		return false
	}
	s.now = at
	s.steps++
	if n != nil {
		s.step(n, func(r *Replica) { r.tick(s.now) })
	} else {
		s.handle(heap.Pop(&s.events).(*simEvent))
	}
	s.flushOut()
	s.lag = 0
	if s.watch != nil {
		s.watch()
	}
	return true
}

func (s *sim) handle(ev *simEvent) {
	if ev.fn != nil {
		ev.fn()
		return
	}
	if s.trace != nil {
		var hdr [24]byte
		binary.LittleEndian.PutUint64(hdr[0:], uint64(ev.at.Sub(simEpoch)))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(ev.from))
		binary.LittleEndian.PutUint32(hdr[12:], uint32(ev.to))
		binary.LittleEndian.PutUint64(hdr[16:], uint64(len(ev.data)))
		s.trace.Write(hdr[:])
		s.trace.Write(ev.data)
	}
	env, err := wire.DecodeEnvelopeOwned(ev.data)
	if err != nil {
		s.t.Fatalf("decode: %v", err)
	}
	if ev.to.IsClient() {
		if c := s.clients[ev.to]; c != nil {
			c.receive(env)
		}
		return
	}
	n := s.nodes[ev.to]
	switch {
	case n.r == nil || n.inc != ev.inc:
	case s.cfg.cost != nil:
		n.backlog = append(n.backlog, env)
		if !n.waking {
			n.waking = true
			inc := n.inc
			s.push(&simEvent{at: maxTime(s.now, n.busyUntil), fn: func() { s.work(n, inc) }})
		}
	default:
		s.step(n, func(r *Replica) { r.deliver(s.now, env) })
	}
}

// work runs a replica's waiting inputs as one burst under the
// service-time model: the burst costs the sum of its inputs' costs, and
// the replica is busy until that much after now.
func (s *sim) work(n *simNode, inc int) {
	if n.inc != inc {
		return
	}
	in := n.backlog
	n.backlog, n.waking = nil, false
	for _, env := range in {
		s.lag += s.cfg.cost(n.r, env)
	}
	n.busyUntil = s.now.Add(s.lag)
	s.step(n, func(r *Replica) {
		for _, env := range in {
			r.deliver(s.now, env)
		}
	})
}

func maxTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return b
	}
	return a
}

// runFor advances virtual time by d.
func (s *sim) runFor(d time.Duration) {
	until := s.now.Add(d)
	for s.advance(until) {
	}
	s.now = until
}

// runUntil advances until cond holds (checked after every event), for
// at most limit of virtual time; it reports whether cond held.
func (s *sim) runUntil(limit time.Duration, cond func() bool) bool {
	until := s.now.Add(limit)
	for !cond() {
		if !s.advance(until) {
			return cond()
		}
	}
	return true
}

// leader returns the live active leader with the highest ballot.
func (s *sim) leader() (wire.NodeID, bool) {
	var id wire.NodeID
	var bal wire.Ballot
	found := false
	for _, n := range s.nodes {
		if n.r != nil && n.r.IsActiveLeader() && (!found || bal.Less(n.r.bal)) {
			id, bal, found = n.id, n.r.bal, true
		}
	}
	return id, found
}

// awaitLeader runs until some replica actively leads.
func (s *sim) awaitLeader(limit time.Duration) wire.NodeID {
	s.t.Helper()
	if !s.runUntil(limit, func() bool { _, ok := s.leader(); return ok }) {
		s.t.Fatalf("no active leader within %v of virtual time", limit)
	}
	id, _ := s.leader()
	return id
}

// suspect makes every live replica's Ω distrust id (cluster.SuspectLeader).
func (s *sim) suspect(id wire.NodeID) {
	for _, n := range s.nodes {
		s.control(n.id, func(r *Replica) { r.Elector().Suspect(id) })
	}
}

// converged reports whether every replica is up, fully applied, and
// holds byte-equal service state.
func (s *sim) converged() bool {
	var first []byte
	for i, n := range s.nodes {
		if n.r == nil || n.r.Chosen() != n.r.Applied() || n.r.wave != nil {
			return false
		}
		snap := n.r.Service().Snapshot()
		if i == 0 {
			first = snap
		} else if !bytes.Equal(snap, first) {
			return false
		}
	}
	return true
}

// simClient is a minimal closed-loop client: one operation at a time,
// broadcast to every replica and rebroadcast every retry interval of
// virtual time until a terminal reply arrives.
type simClient struct {
	s    *sim
	id   wire.NodeID
	seq  uint64
	req  wire.Request
	busy bool
	done func(wire.Reply)
	txns uint64
	// raw, when set, sees every reply this client receives instead:
	// scripted schedules use it to watch NotLeader answers and
	// duplicates.
	raw func(wire.Reply)
}

func (s *sim) newClient() *simClient {
	return s.clientAs(wire.ClientIDBase + wire.NodeID(len(s.clients)))
}

// clientAs is a client with a chosen ID: a schedule that retransmits a
// request some earlier client sent.
func (s *sim) clientAs(id wire.NodeID) *simClient {
	c := &simClient{s: s, id: id}
	s.clients[id] = c
	return c
}

// do issues req (Client and Seq are filled in) to every replica.
func (c *simClient) do(req wire.Request, done func(wire.Reply)) {
	c.seq++
	req.Client, req.Seq = c.id, c.seq
	c.req, c.busy, c.done = req, true, done
	c.sendTo(req, c.s.peers()...)
	c.retryLater(c.seq)
}

func (c *simClient) retryLater(seq uint64) {
	c.s.after(c.s.cfg.retry, func() {
		if c.busy && c.seq == seq {
			c.req.Near, c.req.NearSet = 0, false
			c.sendTo(c.req, c.s.peers()...)
			c.retryLater(seq)
		}
	})
}

// sendTo sends req to the listed replicas only (scripted schedules).
func (c *simClient) sendTo(req wire.Request, to ...wire.NodeID) {
	for _, id := range to {
		c.s.send(c.id, &wire.Envelope{To: id, Msg: &wire.RequestMsg{Req: req}})
	}
	c.s.flushOut()
}

func (c *simClient) receive(env *wire.Envelope) {
	rm, ok := env.Msg.(*wire.ReplyMsg)
	if ok && c.raw != nil {
		c.raw(rm.Rep)
		return
	}
	if !ok || !c.busy || rm.Rep.Seq != c.seq || rm.Rep.Status == wire.StatusNotLeader {
		return
	}
	c.busy = false
	c.done(rm.Rep)
}

// call runs one operation to completion (or fails the test).
func (c *simClient) call(req wire.Request, limit time.Duration) wire.Reply {
	c.s.t.Helper()
	var rep wire.Reply
	got := false
	c.do(req, func(r wire.Reply) { rep, got = r, true })
	if !c.s.runUntil(limit, func() bool { return got }) {
		c.s.t.Fatalf("client %d: no reply to %v within %v", c.id, req.Kind, limit)
	}
	return rep
}

// again re-sends the client's last request, Seq unchanged, as a client
// whose reply was lost does, and runs until it is answered.
func (c *simClient) again(limit time.Duration) wire.Reply {
	c.s.t.Helper()
	var rep wire.Reply
	got := false
	c.busy, c.done = true, func(r wire.Reply) { rep, got = r, true }
	c.sendTo(c.req, c.s.peers()...)
	c.retryLater(c.seq)
	if !c.s.runUntil(limit, func() bool { return got }) {
		c.s.t.Fatalf("client %d: no reply to the retransmitted %v within %v", c.id, c.req.Kind, limit)
	}
	return rep
}

// opLimit bounds one operation in virtual time: room for a failover on
// any profile.
const opLimit = 10 * time.Second

// must runs one operation and requires it answered OK.
func (c *simClient) must(kind wire.RequestKind, op []byte) []byte {
	c.s.t.Helper()
	rep := c.call(wire.Request{Kind: kind, Op: op}, opLimit)
	if rep.Status != wire.StatusOK {
		c.s.t.Fatalf("client %d: %v: %v %s", c.id, kind, rep.Status, rep.Err)
	}
	return rep.Result
}

// get reads one KV key.
func (c *simClient) get(key string) (string, bool) {
	c.s.t.Helper()
	v, ok := service.KVReply(c.must(wire.KindRead, service.KVGet(key)))
	return string(v), ok
}

// counter reads one KV counter.
func (c *simClient) counter(key string) int64 {
	c.s.t.Helper()
	n, _ := service.KVInt(c.must(wire.KindRead, service.KVGet(key)))
	return n
}

// simTxn is one T-Paxos transaction at wire level, numbered as
// client.Txn numbers it: ops carry TxnSeq 0, 1, ..., and the commit or
// abort the count of ops answered OK.
type simTxn struct {
	c   *simClient
	id  uint64
	ops uint32
}

func (c *simClient) begin() *simTxn {
	c.txns++
	return &simTxn{c: c, id: c.txns}
}

func (tx *simTxn) send(kind wire.RequestKind, op []byte) wire.Reply {
	tx.c.s.t.Helper()
	rep := tx.c.call(wire.Request{Kind: kind, Txn: tx.id, TxnSeq: tx.ops, Op: op}, opLimit)
	if kind == wire.KindTxnOp && rep.Status == wire.StatusOK {
		tx.ops++
	}
	return rep
}

func (tx *simTxn) do(op []byte) wire.Reply { tx.c.s.t.Helper(); return tx.send(wire.KindTxnOp, op) }
func (tx *simTxn) commit() wire.Reply      { tx.c.s.t.Helper(); return tx.send(wire.KindTxnCommit, nil) }
func (tx *simTxn) abort() wire.Reply       { tx.c.s.t.Helper(); return tx.send(wire.KindTxnAbort, nil) }

// inject delivers a hand-built message from any sender, as a forger or
// a confused peer would send it.
func (s *sim) inject(from, to wire.NodeID, msg wire.Message) {
	s.send(from, &wire.Envelope{From: from, To: to, Msg: msg})
	s.flushOut()
}

// reseed reboots replica id from mem, as if that were what its disk held.
func (s *sim) reseed(id wire.NodeID, mem *storage.Mem) {
	s.crash(id)
	s.nodes[id].store = &simStore{durable: mem}
	s.restart(id)
}

// others lists every replica but id.
func (s *sim) others(id wire.NodeID) []wire.NodeID {
	var out []wire.NodeID
	for _, p := range s.peers() {
		if p != id {
			out = append(out, p)
		}
	}
	return out
}

// mustConverge lets the cluster run quiet for a second of virtual time —
// every commit and catch-up lands well within it — and then requires it
// converged: every replica up, fully applied, byte-equal.
func (s *sim) mustConverge() {
	s.t.Helper()
	s.runFor(time.Second)
	if !s.converged() {
		var at []string
		for _, n := range s.nodes {
			if n.r == nil {
				at = append(at, fmt.Sprintf("%d: down", n.id))
				continue
			}
			at = append(at, fmt.Sprintf("%d: chosen=%d applied=%d", n.id, n.r.Chosen(), n.r.Applied()))
		}
		s.t.Fatalf("the replicas did not converge (%s)", strings.Join(at, ", "))
	}
	if len(s.violations) > 0 {
		s.t.Fatal(strings.Join(s.violations, "\n"))
	}
}
