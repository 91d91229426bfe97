package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gridrep/internal/metrics"
	"gridrep/internal/wire"
)

// TCP is a Transport over real TCP connections with length-prefixed
// framing. Replicas listen on well-known addresses from an address book;
// clients do not listen — replicas learn the return route for a client
// from the client's first inbound frame, mirroring how the paper's
// prototype replied over the client's own TCP connection.
//
// Unlike the in-process Network, real links flap: the paper's prototype
// ran on PlanetLab-class networks where connections die and peers stall.
// Every outbound route to a peer in the address book is therefore owned
// by a connection supervisor: a goroutine with a bounded outbound queue
// that dials with exponential backoff plus jitter, writes what is
// queued a burst per write under one deadline (on a DialTCPSync
// transport, Send writes an idle link's frame itself), sends
// transport-level ping frames while the link is idle, and declares the
// peer dead when pongs stop arriving (which catches blackholed links
// that writes alone never notice). Peer up/down transitions are reported
// through SetHealth so the Ω elector can react to real socket failures,
// not just missing heartbeats.
type TCP struct {
	local wire.NodeID
	opts  Options
	ln    net.Listener
	stats counters
	// inbox is the receive side. With a sink set (Sinker), each
	// connection's read loop hands envelopes to it directly, so inbound
	// fan-in stays sharded by connection instead of funneling through
	// one consumer.
	inbox *Inbox
	// inline lets Send write a frame on the caller's goroutine when its
	// supervised link is idle (DialTCPSync, DESIGN.md §8).
	inline bool

	mu       sync.Mutex
	book     map[wire.NodeID]string
	sups     map[wire.NodeID]*supervisor
	inbound  map[wire.NodeID]*tcpConn // learned client return routes (accept side)
	accepted map[*tcpConn]struct{}    // all live accept-side conns
	health   func(peer wire.NodeID, up bool)
	closed   bool
	wg       sync.WaitGroup
}

// Options tunes the self-healing behaviour of a TCP transport. The zero
// value selects production defaults; tests shrink the timings.
type Options struct {
	// QueueLen bounds each peer supervisor's outbound queue (default
	// 4096 envelopes). When the queue is full the oldest envelope is
	// dropped, never the newest — fresh protocol messages supersede
	// stale ones.
	QueueLen int
	// BackoffMin/BackoffMax bound the reconnect backoff (defaults 20ms
	// and 2s). Each failed dial doubles the delay up to BackoffMax, and
	// every sleep is jittered to avoid reconnection stampedes.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// WriteTimeout is the deadline of each write — a burst of queued
	// frames, or one ping or pong — and the dial timeout (default 5s).
	// A write that cannot complete within it severs the connection and
	// triggers a reconnect.
	WriteTimeout time.Duration
	// PingEvery is the transport heartbeat period on supervised
	// connections (default 500ms).
	PingEvery time.Duration
	// PingTimeout declares a peer dead when no pong (nor any other
	// frame) arrives for this long (default 4×PingEvery). This is what
	// detects blackholed links whose writes still succeed locally.
	PingTimeout time.Duration
}

func (o *Options) fillDefaults() {
	if o.QueueLen == 0 {
		o.QueueLen = 4096
	}
	if o.BackoffMin == 0 {
		o.BackoffMin = 20 * time.Millisecond
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.PingEvery == 0 {
		o.PingEvery = 500 * time.Millisecond
	}
	if o.PingTimeout == 0 {
		o.PingTimeout = 4 * o.PingEvery
	}
}

// Frame kinds on the wire: every frame is uvarint(len) | kind | payload.
// Envelope frames carry one encoded wire.Envelope; ping/pong frames carry
// an opaque 8-byte nonce echoed back by the receiver.
const (
	frameEnv  = 0x00
	framePing = 0x01
	framePong = 0x02
)

// maxFrame bounds a single frame on the wire.
const maxFrame = wire.MaxBlob + (1 << 16)

// frameRoom is the room encodeFrame reserves in front of an envelope's
// encoding for the frame header: a uvarint length and the kind byte.
const frameRoom = binary.MaxVarintLen64 + 1

var frameGap [frameRoom]byte

// encodeFrame encodes env as one envelope frame into a pooled buffer
// (ownership goes to the caller): frameOf(*bp) is the frame, header and
// payload contiguous, so it can leave in one write; the buffer's bytes
// before it are padding.
func encodeFrame(env *wire.Envelope) *[]byte {
	bp := wire.GetBuf()
	*bp = wire.EncodeEnvelope(append((*bp)[:0], frameGap[:]...), env)
	sealFrame(*bp)
	return bp
}

// sealFrame writes the envelope frame header into b's reserved room, in
// front of the payload that follows it.
func sealFrame(b []byte) {
	b[frameRoom-1] = frameEnv
	binary.PutUvarint(b[frameStart(b):], uint64(len(b)-frameRoom+1))
}

// frameStart is the offset of the frame in a buffer encodeFrame filled:
// its header ends where the payload begins, at frameRoom.
func frameStart(b []byte) int {
	n := uint64(len(b) - frameRoom + 1) // kind byte and payload
	return frameRoom - 1 - (bits.Len64(n|1)+6)/7
}

// frameOf returns the frame in a buffer encodeFrame filled.
func frameOf(b []byte) []byte { return b[frameStart(b):] }

// counters aggregates transport events; they are read through the
// registry RegisterMetrics publishes them into.
type counters struct {
	dials, dialFails, reconnects    metrics.Counter
	sent, recvd                     metrics.Counter
	flushes                         metrics.Counter // writes of envelope frames: bursts and inline writes
	pingsSent, pongsRecvd           metrics.Counter
	dropQueueFull, dropNoRoute      metrics.Counter
	dropWriteFail, dropRecvOverflow metrics.Counter
	dropReplyOverflow               metrics.Counter
	// dropReplyOverflow split by cause (its two addends): overflow while
	// writing gateway sheds (the edge is rejecting faster than the
	// socket drains — expected under overload, the shed must never block
	// the event loop) vs overflow on ordinary replies (a slow client not
	// reading its socket).
	dropReplyShed, dropReplySlow metrics.Counter
	lastRTT                      metrics.Gauge // nanoseconds
	// decodeLat times each envelope frame's decode on its connection's
	// read loop (created at transport construction, registered on
	// demand — the storage.File histogram pattern).
	decodeLat *metrics.Histogram
}

type tcpConn struct {
	c  net.Conn
	w  *bufio.Writer
	wt time.Duration // write deadline, set once per write
	mu sync.Mutex    // serializes writes

	// Accept-side reply writer (nil on supervisor connections): Send
	// enqueues encoded replies here and replyLoop writes them from a
	// dedicated goroutine, so a replica's event loop never blocks on a
	// slow client socket. wstop is closed by the connection's read loop
	// on the way out; queued buffers are drained back to the pool.
	wq    chan *[]byte
	wstop chan struct{}

	// Inline writes (writeInline), on the supervised links of a
	// DialTCPSync transport; raw is nil on every other connection. rest
	// is the frame an inline write left partly written: (*rest)[restAt:]
	// is still to go, and the connection's next write starts with it.
	// wbuf and wn carry one write through rawFn, the method value
	// rawWrite bound once, so a write allocates nothing. All guarded by
	// mu.
	raw    syscall.RawConn
	rawFn  func(fd uintptr) bool
	rest   *[]byte
	restAt int
	wbuf   []byte
	wn     int
}

func newTCPConn(nc net.Conn, wt time.Duration) *tcpConn {
	return &tcpConn{c: nc, w: bufio.NewWriter(nc), wt: wt}
}

// enableInline readies tc for writeInline. A connection that exposes no
// raw socket keeps every frame on the queue.
func (tc *tcpConn) enableInline() {
	if sc, ok := tc.c.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			tc.raw, tc.rawFn = raw, tc.rawWrite
		}
	}
}

// writeNow makes one non-blocking write of b and returns how many bytes
// the kernel took: 0 when the socket buffer is full or the write fails.
// Caller holds tc.mu.
func (tc *tcpConn) writeNow(b []byte) int {
	tc.wbuf, tc.wn = b, 0
	tc.raw.Write(tc.rawFn) // an error means nothing was written
	tc.wbuf = nil
	return tc.wn
}

// rawWrite is rawFn: one write of wbuf on the socket, never waiting for
// it to drain.
func (tc *tcpConn) rawWrite(fd uintptr) bool {
	tc.wn = nonblockingWrite(fd, tc.wbuf)
	return true
}

// bufferRest buffers the tail an inline write left, ahead of any other
// frame, and reports the frames it buffered (0 or 1). Caller holds
// tc.mu.
func (tc *tcpConn) bufferRest() (uint64, error) {
	if tc.rest == nil {
		return 0, nil
	}
	_, err := tc.w.Write((*tc.rest)[tc.restAt:])
	wire.PutBuf(tc.rest)
	tc.rest = nil
	return 1, err
}

// failed severs the connection on a write error, under tc.mu, so no
// later write lands behind a frame the failed one may have torn.
func (tc *tcpConn) failed(err error) error {
	if err != nil {
		tc.c.Close()
	}
	return err
}

// replyQueue bounds each accept-side connection's outbound reply queue.
const replyQueue = 4096

// enqueueReply hands an encoded reply (pooled buffer, ownership
// transfers) to the connection's writer goroutine, evicting the oldest
// queued reply when full — the supervisor-queue discipline. shed marks
// the incoming reply as a gateway StatusOverload shed; overflow drops
// are attributed to that cause (sheds flooding the queue) or to a slow
// client otherwise, on top of the total.
func (tc *tcpConn) enqueueReply(bp *[]byte, st *counters, shed bool) {
	drop := func() {
		st.dropReplyOverflow.Add(1)
		if shed {
			st.dropReplyShed.Add(1)
		} else {
			st.dropReplySlow.Add(1)
		}
	}
	select {
	case tc.wq <- bp:
		return
	default:
	}
	select {
	case old := <-tc.wq:
		wire.PutBuf(old)
		drop()
	default:
	}
	select {
	case tc.wq <- bp:
	default:
		drop()
		wire.PutBuf(bp)
	}
}

// writeFrame writes and flushes one frame on its own: the ping and pong
// frames, which must not wait behind a burst. An inline write's tail
// goes first, counted as sent.
func (t *TCP) writeFrame(tc *tcpConn, kind byte, payload []byte) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.wt > 0 {
		tc.c.SetWriteDeadline(time.Now().Add(tc.wt))
	}
	n, err := tc.bufferRest()
	if err == nil {
		err = tc.bufferFrame(kind, payload)
	}
	if err == nil {
		err = tc.w.Flush()
	}
	if err != nil {
		t.stats.dropWriteFail.Add(n)
		return tc.failed(err)
	}
	t.stats.sent.Add(n)
	return nil
}

// bufferFrame appends one frame to the connection's buffered writer,
// which writes to the socket only when it fills. Caller holds tc.mu.
func (tc *tcpConn) bufferFrame(kind byte, payload []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)+1))
	if _, err := tc.w.Write(hdr[:n]); err != nil {
		return err
	}
	if err := tc.w.WriteByte(kind); err != nil {
		return err
	}
	_, err := tc.w.Write(payload)
	return err
}

// frameBurst bounds the envelope frames one writeBurst coalesces, so a
// queue that never drains still yields to the writer's other work
// (pings, pongs, shutdown) between bursts.
const frameBurst = 64

// writeBurst writes, under one write deadline and one Flush, the tail
// an inline write left (if any), the frame its caller dequeued (if
// any), and then, without blocking, every frame already queued on q up
// to frameBurst: a burst of queued frames costs one write syscall, not
// one each (DESIGN.md §8). The pooled buffers go back to the pool. It
// returns how many frames it took from q, first included. Every frame
// is counted in sent, and the flush in flushes; on a failure the burst's
// frames died with the connection, which it severs.
func (t *TCP) writeBurst(tc *tcpConn, first *[]byte, q <-chan *[]byte) (int64, error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.wt > 0 {
		tc.c.SetWriteDeadline(time.Now().Add(tc.wt))
	}
	n, err := tc.bufferRest()
	taken := int64(0)
	take := func(bp *[]byte) {
		if err == nil {
			_, err = tc.w.Write(frameOf(*bp))
		}
		wire.PutBuf(bp)
		n++
		taken++
	}
	if first != nil {
		take(first)
	}
drain:
	for err == nil && n < frameBurst {
		select {
		case bp := <-q:
			take(bp)
		default:
			break drain
		}
	}
	if n == 0 {
		return 0, nil
	}
	if err == nil {
		err = tc.w.Flush()
	}
	if err != nil {
		t.stats.dropWriteFail.Add(n)
		return taken, tc.failed(err)
	}
	t.stats.sent.Add(n)
	t.stats.flushes.Add(1)
	return taken, nil
}

// ListenTCP starts a listening transport for a replica with default
// options. book maps every replica ID (including local) to its host:port
// listen address.
func ListenTCP(local wire.NodeID, book map[wire.NodeID]string) (*TCP, error) {
	return ListenTCPOpts(local, book, Options{})
}

// ListenTCPOpts is ListenTCP with explicit self-healing options.
func ListenTCPOpts(local wire.NodeID, book map[wire.NodeID]string, opts Options) (*TCP, error) {
	addr, ok := book[local]
	if !ok {
		return nil, fmt.Errorf("transport: no address for local node %v", local)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := newTCP(local, book, opts)
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// DialTCP starts a non-listening transport for a client with default
// options. The client can send to any replica in the book; replicas
// reply over the connections the client opened.
func DialTCP(local wire.NodeID, book map[wire.NodeID]string) *TCP {
	return DialTCPOpts(local, book, Options{})
}

// DialTCPOpts is DialTCP with explicit self-healing options.
func DialTCPOpts(local wire.NodeID, book map[wire.NodeID]string, opts Options) *TCP {
	return newTCP(local, book, opts)
}

// DialTCPSync is DialTCP for one synchronous client, which has a frame
// or a few in flight and waits for the reply: Send writes a frame on
// the caller's goroutine, one non-blocking write, when its link is up
// with nothing queued and no write in progress, and queues it for the
// link's writer otherwise (DESIGN.md §8). A transport many goroutines
// share keeps DialTCP: there, the writer's wake-up delay is what
// coalesces their concurrent frames into one write.
func DialTCPSync(local wire.NodeID, book map[wire.NodeID]string) *TCP {
	t := newTCP(local, book, Options{})
	t.inline = true
	return t
}

func newTCP(local wire.NodeID, book map[wire.NodeID]string, opts Options) *TCP {
	opts.fillDefaults()
	b := make(map[wire.NodeID]string, len(book))
	for k, v := range book {
		b[k] = v
	}
	t := &TCP{
		local:    local,
		opts:     opts,
		book:     b,
		inbox:    NewInbox(replicaRecvBuf),
		sups:     make(map[wire.NodeID]*supervisor),
		inbound:  make(map[wire.NodeID]*tcpConn),
		accepted: make(map[*tcpConn]struct{}),
	}
	t.stats.decodeLat = metrics.NewHistogram(metrics.UnitNanoseconds)
	return t
}

var _ Transport = (*TCP)(nil)
var _ HealthReporter = (*TCP)(nil)
var _ Sinker = (*TCP)(nil)
var _ RTTReporter = (*TCP)(nil)

// PeerRTT implements RTTReporter: the smoothed ping round trip to peer
// from its supervisor's EWMA. Only supervised (book) peers have
// estimates, and only after the first pong; accept-side routes report
// no estimate.
func (t *TCP) PeerRTT(peer wire.NodeID) (time.Duration, bool) {
	t.mu.Lock()
	sup := t.sups[peer]
	t.mu.Unlock()
	if sup == nil {
		return 0, false
	}
	if v := sup.rtt.Load(); v > 0 {
		return time.Duration(v), true
	}
	return 0, false
}

// SetSink implements Sinker: inbound envelopes are handed to fn —
// possibly concurrently, one caller per live connection's read loop —
// instead of the Recv channel. Set before traffic starts.
func (t *TCP) SetSink(fn func(*wire.Envelope)) { t.inbox.SetSink(fn) }

// Local implements Transport.
func (t *TCP) Local() wire.NodeID { return t.local }

// Addr returns the actual listen address (useful with ":0" books in
// tests), or "" for non-listening transports.
func (t *TCP) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// SetAddr updates (or adds) a peer's address in the book. Supervisors
// pick the new address up on their next dial attempt, which is how a
// deployment repoints a route at a restarted or migrated replica.
func (t *TCP) SetAddr(id wire.NodeID, addr string) {
	t.mu.Lock()
	t.book[id] = addr
	t.mu.Unlock()
}

// SetHealth implements HealthReporter: fn is invoked (from transport
// goroutines) with up=true when a supervised peer link is established and
// up=false when it dies. Register before traffic starts.
func (t *TCP) SetHealth(fn func(peer wire.NodeID, up bool)) {
	t.mu.Lock()
	t.health = fn
	t.mu.Unlock()
}

func (t *TCP) notifyHealth(peer wire.NodeID, up bool) {
	t.mu.Lock()
	fn, closed := t.health, t.closed
	t.mu.Unlock()
	if fn != nil && !closed {
		fn(peer, up)
	}
}

// RegisterMetrics implements metrics.Instrumented: the replica that owns
// this transport publishes its instruments into the replica's registry.
// Queue depth and connected-peer count are computed on demand (they live
// in the supervisors), via gauge funcs.
func (t *TCP) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("gridrep_tcp_dials_total",
		"successful connection establishments", &t.stats.dials)
	reg.RegisterCounter("gridrep_tcp_dial_failures_total",
		"failed dial attempts", &t.stats.dialFails)
	reg.RegisterCounter("gridrep_tcp_reconnects_total",
		"re-establishments after a healthy link died", &t.stats.reconnects)
	reg.RegisterCounter("gridrep_tcp_sent_total",
		"envelope frames sent", &t.stats.sent)
	reg.RegisterCounter("gridrep_tcp_flushes_total",
		"writes of envelope frames, one per burst of queued frames and one per inline write (frames per write = sent / flushes)", &t.stats.flushes)
	reg.RegisterCounter("gridrep_tcp_recvd_total",
		"envelope frames received", &t.stats.recvd)
	reg.RegisterCounter("gridrep_tcp_pings_sent_total",
		"transport heartbeat pings sent", &t.stats.pingsSent)
	reg.RegisterCounter("gridrep_tcp_pongs_recvd_total",
		"transport heartbeat pongs received", &t.stats.pongsRecvd)
	reg.RegisterCounter("gridrep_tcp_drop_queue_full_total",
		"envelopes dropped by supervisor queue overflow", &t.stats.dropQueueFull)
	reg.RegisterCounter("gridrep_tcp_drop_no_route_total",
		"envelopes dropped with no address and no learned route", &t.stats.dropNoRoute)
	reg.RegisterCounter("gridrep_tcp_drop_write_fail_total",
		"envelopes that died with their connection", &t.stats.dropWriteFail)
	reg.RegisterCounter("gridrep_tcp_drop_recv_overflow_total",
		"envelopes dropped by receive buffer overflow", &t.stats.dropRecvOverflow)
	reg.RegisterCounter("gridrep_tcp_drop_reply_overflow_total",
		"replies dropped by accept-side writer queue overflow", &t.stats.dropReplyOverflow)
	reg.RegisterCounter("gridrep_tcp_drop_reply_shed_total",
		"overflow-dropped replies that were gateway sheds (StatusOverload)", &t.stats.dropReplyShed)
	reg.RegisterCounter("gridrep_tcp_drop_reply_slow_client_total",
		"overflow-dropped replies lost to a client that stopped reading", &t.stats.dropReplySlow)
	reg.RegisterHistogram("gridrep_tcp_decode_seconds",
		"envelope decode latency per frame, on the connection's read loop", t.stats.decodeLat)
	reg.RegisterGauge("gridrep_tcp_last_rtt_nanoseconds",
		"most recent measured ping round trip", &t.stats.lastRTT)
	reg.RegisterGaugeFunc("gridrep_tcp_rtt_ewma_max_nanoseconds",
		"largest smoothed per-peer ping RTT (EWMA, gain 1/8)",
		func() int64 {
			var max int64
			t.mu.Lock()
			for _, sup := range t.sups {
				if v := sup.rtt.Load(); v > max {
					max = v
				}
			}
			t.mu.Unlock()
			return max
		})
	reg.RegisterGaugeFunc("gridrep_tcp_queue_depth",
		"enqueued outbound envelopes across peer supervisors",
		func() int64 {
			var n int64
			t.mu.Lock()
			for _, sup := range t.sups {
				n += int64(len(sup.q))
			}
			t.mu.Unlock()
			return n
		})
	reg.RegisterGaugeFunc("gridrep_tcp_connected_peers",
		"supervised links currently up",
		func() int64 {
			var n int64
			t.mu.Lock()
			for _, sup := range t.sups {
				if sup.isUp() {
					n++
				}
			}
			t.mu.Unlock()
			return n
		})
}

// Send implements Transport. Envelopes to peers in the address book are
// handed to that peer's connection supervisor (started on first use),
// and replies to learned client routes to that connection's reply
// writer; either way they are written off the caller's goroutine, so a
// replica's event loop (or a parallel-read worker) never blocks on a
// socket, and failures never block the caller. A DialTCPSync transport
// writes a frame itself when its link is idle, without ever blocking
// (supervisor.writeInline).
//
// Encoding uses pooled buffers: the frame bytes live in a wire.GetBuf
// buffer that returns to the pool once written (or dropped), so a warm
// send path allocates nothing per envelope.
func (t *TCP) Send(env *wire.Envelope) {
	// Preserve a pre-stamped sender: gateway session muxes send with
	// logical session IDs on a shared connection (DESIGN.md §15), and the
	// accept side learns one reply route per session From it sees.
	if env.From == 0 {
		env.From = t.local
	}
	// Classify before encoding: reply-writer overflow drops are
	// attributed by whether the write was a gateway shed.
	shed := false
	if rm, ok := env.Msg.(*wire.ReplyMsg); ok {
		shed = rm.Rep.Status == wire.StatusOverload
	}
	bp := encodeFrame(env)

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		wire.PutBuf(bp)
		return
	}
	if sup, ok := t.sups[env.To]; ok {
		t.mu.Unlock()
		sup.send(bp)
		return
	}
	if _, inBook := t.book[env.To]; inBook {
		sup := t.startSupervisorLocked(env.To)
		t.mu.Unlock()
		sup.enqueue(bp) // no link yet
		return
	}
	conn, ok := t.inbound[env.To]
	t.mu.Unlock()
	if !ok {
		t.stats.dropNoRoute.Add(1)
		wire.PutBuf(bp)
		return
	}
	conn.enqueueReply(bp, &t.stats, shed)
}

// Recv implements Transport.
func (t *TCP) Recv() <-chan *wire.Envelope { return t.inbox.Recv() }

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	sups := make([]*supervisor, 0, len(t.sups))
	for _, s := range t.sups {
		sups = append(sups, s)
	}
	conns := make([]*tcpConn, 0, len(t.accepted))
	for c := range t.accepted {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	if t.ln != nil {
		t.ln.Close()
	}
	for _, s := range sups {
		s.shutdown()
	}
	for _, c := range conns {
		c.c.Close()
	}
	t.wg.Wait()
	t.inbox.Close()
	return nil
}

func (t *TCP) addrOf(peer wire.NodeID) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	addr, ok := t.book[peer]
	return addr, ok
}

// startSupervisorLocked creates and launches the supervisor owning the
// route to peer. Caller holds t.mu.
func (t *TCP) startSupervisorLocked(peer wire.NodeID) *supervisor {
	sup := &supervisor{
		t:    t,
		peer: peer,
		q:    make(chan *[]byte, t.opts.QueueLen),
		stop: make(chan struct{}),
	}
	if t.inline {
		sup.kick = make(chan struct{}, 1)
	}
	t.sups[peer] = sup
	t.wg.Add(1)
	go sup.run()
	return sup
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.ln.Accept()
		if err != nil {
			return
		}
		conn := newTCPConn(nc, t.opts.WriteTimeout)
		conn.wq = make(chan *[]byte, replyQueue)
		conn.wstop = make(chan struct{})
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			nc.Close()
			return
		}
		t.accepted[conn] = struct{}{}
		t.wg.Add(2)
		t.mu.Unlock()
		go t.readLoop(conn, true, nil)
		go t.replyLoop(conn)
	}
}

// replyLoop writes one accept-side connection's queued replies, each
// reply it wakes for together with every reply queued behind it, in one
// write (writeBurst). It lives until the connection's read loop closes
// wstop, then drains the queue back to the buffer pool. A write failure
// severs the connection (the read loop notices and tears the learned
// routes down); later queued frames fail fast on the closed socket.
func (t *TCP) replyLoop(conn *tcpConn) {
	defer t.wg.Done()
	for {
		select {
		case bp := <-conn.wq:
			t.writeBurst(conn, bp, conn.wq)
		case <-conn.wstop:
			for {
				select {
				case bp := <-conn.wq:
					t.stats.dropWriteFail.Add(1)
					wire.PutBuf(bp)
				default:
					return
				}
			}
		}
	}
}

// readLoop reads frames from one connection, decodes each envelope
// frame and delivers it, all on this goroutine: every connection has its
// own read loop, so N connections still decode on N cores, and a
// received envelope reaches the inbox (or the sink) with no hand-off
// between socket and consumer. Ping/pong frames reuse a scratch buffer,
// and a pong is written on its own (writeFrame), waiting at most for the
// one burst the connection's writer is flushing. A frame that fails to
// frame or decode severs the connection. On the accept side the loop
// learns client return routes from each envelope's From and tears them
// down on the way out; supervisor-side loops report pongs to their
// supervisor via the pong channel.
func (t *TCP) readLoop(conn *tcpConn, acceptSide bool, pong chan<- int64) {
	defer t.wg.Done()
	defer conn.c.Close()
	var learned []wire.NodeID
	if acceptSide {
		defer func() {
			t.mu.Lock()
			delete(t.accepted, conn)
			for _, id := range learned {
				if t.inbound[id] == conn {
					delete(t.inbound, id)
				}
			}
			t.mu.Unlock()
			close(conn.wstop) // release the reply writer
		}()
	}
	r := bufio.NewReader(conn.c)
	var scratch [16]byte // reused for ping/pong payloads: no alloc per heartbeat
	for {
		n, err := binary.ReadUvarint(r)
		if err != nil || n == 0 || n > maxFrame {
			return
		}
		kind, err := r.ReadByte()
		if err != nil {
			return
		}
		var payload []byte
		if kind != frameEnv && n-1 <= uint64(len(scratch)) {
			payload = scratch[:n-1]
		} else {
			// Envelope payloads get a fresh exact-size buffer because
			// DecodeEnvelopeOwned aliases it: ownership moves to the
			// decoded message, which the consumer may retain (the
			// acceptor keeps entry slices in its log).
			payload = make([]byte, n-1)
		}
		if _, err := io.ReadFull(r, payload); err != nil {
			return
		}
		switch kind {
		case framePing:
			if t.writeFrame(conn, framePong, payload) != nil {
				return
			}
		case framePong:
			if pong != nil && len(payload) == 8 {
				select {
				case pong <- int64(binary.BigEndian.Uint64(payload)):
				default:
				}
			}
		case frameEnv:
			start := time.Now()
			env, err := wire.DecodeEnvelopeOwned(payload)
			if err != nil {
				return // corrupt peer: sever
			}
			t.stats.decodeLat.Since(start)
			t.stats.recvd.Add(1)
			if acceptSide {
				t.learn(env.From, conn, &learned)
			}
			if t.inbox.Deliver(env) != Queued {
				t.stats.dropRecvOverflow.Add(1)
			}
		default:
			return // unknown frame kind; sever
		}
	}
}

func (t *TCP) learn(from wire.NodeID, conn *tcpConn, learned *[]wire.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if _, inBook := t.book[from]; inBook {
		return // book peers have supervised outbound routes
	}
	if _, ok := t.inbound[from]; !ok {
		t.inbound[from] = conn
		*learned = append(*learned, from)
	}
}

// supervisor owns the outbound route to one peer: it dials with backoff,
// drains the bounded queue onto the connection, pings while idle, and
// reconnects whenever the link dies.
type supervisor struct {
	t    *TCP
	peer wire.NodeID
	q    chan *[]byte // pooled frame buffers; consumer returns them
	stop chan struct{}
	// unsent counts the frames queued on q or taken off it by the pump
	// and not yet written: while it is nonzero, writeInline leaves the
	// frame to the queue, so frames keep their order per connection.
	unsent atomic.Int64
	// kick wakes the pump to write the tail an inline write left (nil
	// unless the transport writes inline).
	kick chan struct{}

	// rtt is the smoothed ping round trip to this peer in nanoseconds
	// (0 = no sample yet): a TCP-style EWMA with gain 1/8, so one jittery
	// tail sample moves the estimate an eighth of the way while the
	// placement logic reading it through PeerRTT sees a stable figure.
	rtt atomic.Int64

	mu   sync.Mutex
	conn *tcpConn // live connection, nil while down
	down bool     // stop flag, guarded by mu for shutdown idempotence
}

// noteRTT folds one ping round-trip sample into the peer's EWMA.
func (s *supervisor) noteRTT(sample int64) {
	cur := s.rtt.Load()
	if cur == 0 {
		s.rtt.Store(sample)
		return
	}
	s.rtt.Store(cur + (sample-cur)/8)
}

// send hands an encoded frame (pooled buffer, ownership transfers) to
// the link: written at once on an inline link that is idle, queued
// otherwise.
func (s *supervisor) send(bp *[]byte) {
	if s.kick == nil || !s.writeInline(bp) {
		s.enqueue(bp)
	}
}

// writeInline writes bp's frame on the caller's goroutine with one
// non-blocking write, when the link is up and idle: nothing queued, no
// write in progress, no frame tail pending. If the kernel takes only
// part of the frame, the tail becomes the connection's rest, which the
// pump writes ahead of every frame queued later, so frames keep their
// order per connection. It reports false, leaving bp to the caller,
// when the frame must be queued instead: the link is busy or down, or
// the kernel took none of it.
func (s *supervisor) writeInline(bp *[]byte) bool {
	s.mu.Lock()
	tc := s.conn
	s.mu.Unlock()
	if tc == nil || tc.raw == nil || s.unsent.Load() != 0 || !tc.mu.TryLock() {
		return false
	}
	defer tc.mu.Unlock()
	// Again under the lock: a frame the pump has dequeued but not yet
	// written still counts in unsent.
	if s.unsent.Load() != 0 || tc.rest != nil {
		return false
	}
	frame := frameOf(*bp)
	n := tc.writeNow(frame)
	switch {
	case n == 0:
		return false
	case n < len(frame):
		tc.rest, tc.restAt = bp, len(*bp)-len(frame)+n
		select {
		case s.kick <- struct{}{}:
		default:
		}
		return true
	}
	wire.PutBuf(bp)
	s.t.stats.sent.Add(1)
	s.t.stats.flushes.Add(1)
	return true
}

// enqueue adds an encoded frame (in a pooled buffer whose ownership
// transfers to the queue) to the outbound queue, evicting the oldest
// queued frame when full.
func (s *supervisor) enqueue(bp *[]byte) {
	s.unsent.Add(1)
	select {
	case s.q <- bp:
		return
	default:
	}
	select {
	case old := <-s.q:
		wire.PutBuf(old)
		s.unsent.Add(-1)
		s.t.stats.dropQueueFull.Add(1)
	default:
	}
	select {
	case s.q <- bp:
	default:
		s.unsent.Add(-1)
		s.t.stats.dropQueueFull.Add(1)
		wire.PutBuf(bp)
	}
}

func (s *supervisor) isUp() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn != nil
}

func (s *supervisor) setConn(c *tcpConn) {
	s.mu.Lock()
	s.conn = c
	s.mu.Unlock()
}

// shutdown stops the supervisor and severs its connection.
func (s *supervisor) shutdown() {
	s.mu.Lock()
	if !s.down {
		s.down = true
		close(s.stop)
	}
	c := s.conn
	s.mu.Unlock()
	if c != nil {
		c.c.Close()
	}
}

// sleep waits for d or until shutdown; it reports false on shutdown.
func (s *supervisor) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-s.stop:
		return false
	}
}

// jitter spreads d uniformly over [d/2, d] so reconnecting peers do not
// stampede a restarted replica in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)/2+1))
}

// pumpResult says why a supervisor abandoned its connection.
type pumpResult int

const (
	pumpStopped  pumpResult = iota // transport closing
	pumpConnDead                   // write failed or reader saw EOF
	pumpStalled                    // no pong within PingTimeout (blackhole)
)

// run is the supervisor loop: dial (with backoff), pump, repeat.
//
// Health reporting is debounced so that transient connection resets do
// not destabilize leader election: a link that dies but redials
// successfully on the immediate next attempt never reports down. Down is
// reported only for end-to-end stalls (ping timeout — the blackhole
// case, where dials may even keep succeeding) and for links that stay
// broken (a failed dial), and is reported once per transition.
func (s *supervisor) run() {
	defer s.t.wg.Done()
	backoff := s.t.opts.BackoffMin
	everConnected := false
	up := false           // last health state reported
	reportedDown := false // so repeated dial failures report down once
	reportDown := func() {
		if up || !reportedDown {
			s.t.notifyHealth(s.peer, false)
			reportedDown = true
		}
		up = false
	}
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		addr, ok := s.t.addrOf(s.peer)
		if !ok {
			if !s.sleep(jitter(s.t.opts.BackoffMax)) {
				return
			}
			continue
		}
		nc, err := net.DialTimeout("tcp", addr, s.t.opts.WriteTimeout)
		if err != nil {
			s.t.stats.dialFails.Add(1)
			reportDown()
			if !s.sleep(jitter(backoff)) {
				return
			}
			if backoff *= 2; backoff > s.t.opts.BackoffMax {
				backoff = s.t.opts.BackoffMax
			}
			continue
		}
		s.t.stats.dials.Add(1)
		if everConnected {
			s.t.stats.reconnects.Add(1)
		}
		everConnected = true
		backoff = s.t.opts.BackoffMin

		conn := newTCPConn(nc, s.t.opts.WriteTimeout)
		if s.kick != nil {
			conn.enableInline()
		}
		s.setConn(conn)
		if !up {
			up = true
			s.t.notifyHealth(s.peer, true)
		}

		pong := make(chan int64, 4)
		readerDone := make(chan struct{})
		s.t.wg.Add(1)
		go func() {
			defer close(readerDone)
			s.t.readLoop(conn, false, pong)
		}()

		res := s.pump(conn, readerDone, pong)

		s.setConn(nil)
		conn.c.Close()
		<-readerDone
		// A tail no write took dies with its connection. The socket is
		// closed, so no inline write can leave another.
		conn.mu.Lock()
		if conn.rest != nil {
			wire.PutBuf(conn.rest)
			conn.rest = nil
			s.t.stats.dropWriteFail.Add(1)
		}
		conn.mu.Unlock()
		switch res {
		case pumpStopped:
			return
		case pumpStalled:
			// The peer is unreachable end to end even though the
			// socket looked healthy; tell Ω now rather than after a
			// failed redial (dials through a blackhole still succeed).
			reportDown()
		case pumpConnDead:
			// Plain connection death: redial immediately; health only
			// turns down if the redial fails.
		}
		if !s.sleep(jitter(s.t.opts.BackoffMin)) {
			return
		}
	}
}

// pump drains the queue onto conn, a burst per write (writeBurst), and
// keeps the link verified with pings. A kick has it write the tail an
// inline write left, with whatever is queued behind it. It returns when
// the connection must be abandoned: a write failed, the reader saw EOF,
// or the peer stopped answering pings.
func (s *supervisor) pump(conn *tcpConn, readerDone <-chan struct{}, pong <-chan int64) pumpResult {
	ping := time.NewTicker(s.t.opts.PingEvery)
	defer ping.Stop()
	lastHeard := time.Now()
	for {
		select {
		case <-s.stop:
			return pumpStopped
		case <-readerDone:
			return pumpConnDead
		case sentAt := <-pong:
			lastHeard = time.Now()
			s.t.stats.pongsRecvd.Add(1)
			if rtt := time.Now().UnixNano() - sentAt; rtt > 0 {
				s.t.stats.lastRTT.Set(rtt)
				s.noteRTT(rtt)
			}
		case bp := <-s.q:
			if !s.flush(conn, bp) {
				return pumpConnDead
			}
		case <-s.kick:
			if !s.flush(conn, nil) {
				return pumpConnDead
			}
		case <-ping.C:
			if time.Since(lastHeard) > s.t.opts.PingTimeout {
				return pumpStalled // peer stalled or link blackholed
			}
			var p [8]byte
			binary.BigEndian.PutUint64(p[:], uint64(time.Now().UnixNano()))
			if err := s.t.writeFrame(conn, framePing, p[:]); err != nil {
				return pumpConnDead
			}
			s.t.stats.pingsSent.Add(1)
		}
	}
}

// flush writes one burst on conn (writeBurst), first leading it if not
// nil, and reports whether the write succeeded.
func (s *supervisor) flush(conn *tcpConn, first *[]byte) bool {
	taken, err := s.t.writeBurst(conn, first, s.q)
	s.unsent.Add(-taken)
	return err == nil
}
