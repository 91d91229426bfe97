package transport

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"gridrep/internal/wire"
)

// newBuf returns a pooled buffer holding an envelope frame with a tiny
// payload, the shape encodeFrame fills and the writers' queues own.
func newBuf(b byte) *[]byte {
	bp := wire.GetBuf()
	*bp = append(append((*bp)[:0], frameGap[:]...), b)
	sealFrame(*bp)
	return bp
}

// TestReplyDropAccounting exercises enqueueReply directly with no
// writer goroutine draining the queue — the worst case a stalled client
// can create. Every call must return immediately (the test would hang
// otherwise: nothing ever drains wq), and overflow drops must be
// attributed to their cause: gateway sheds flooding the queue vs a slow
// client starving ordinary replies.
func TestReplyDropAccounting(t *testing.T) {
	tc := &tcpConn{wq: make(chan *[]byte, 4)}
	var st counters

	// Fill the queue with ordinary replies: no drops yet.
	for i := 0; i < 4; i++ {
		tc.enqueueReply(newBuf(byte(i)), &st, false)
	}
	if got := st.dropReplyOverflow.Load(); got != 0 {
		t.Fatalf("drops before overflow = %d", got)
	}

	// Three sheds against a full queue: each evicts the oldest frame and
	// books one overflow drop against the shed cause.
	for i := 0; i < 3; i++ {
		tc.enqueueReply(newBuf(0xee), &st, true)
	}
	// Two ordinary replies against the still-full queue: slow-client drops.
	for i := 0; i < 2; i++ {
		tc.enqueueReply(newBuf(0xdd), &st, false)
	}

	total := st.dropReplyOverflow.Load()
	shed := st.dropReplyShed.Load()
	slow := st.dropReplySlow.Load()
	if total != 5 {
		t.Fatalf("overflow drops = %d, want 5", total)
	}
	if shed != 3 || slow != 2 {
		t.Fatalf("cause split = shed %d / slow %d, want 3 / 2", shed, slow)
	}
	if shed+slow != total {
		t.Fatalf("cause counters %d+%d do not sum to total %d", shed, slow, total)
	}
	// Drain the queue back to the pool.
	for {
		select {
		case bp := <-tc.wq:
			wire.PutBuf(bp)
		default:
			return
		}
	}
}

// rawDialFrame dials a replica directly and writes one hand-framed
// envelope, returning the connection without ever starting a read loop —
// a client that goes silent after its first request, the pathological
// slow reader.
func rawDialFrame(t *testing.T, addr string, env *wire.Envelope) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	payload := wire.EncodeEnvelope(nil, env)
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)+1))
	frame := append(append(hdr[:n:n], frameEnv), payload...)
	if _, err := nc.Write(frame); err != nil {
		t.Fatalf("raw frame write: %v", err)
	}
	return nc
}

// TestTCPShedNeverBlocksEventLoop floods a never-reading client with
// gateway sheds over a real socket. The sender — standing in for a
// replica's event loop — must complete the whole burst promptly even
// though the client drains nothing: replies leave through the bounded
// per-connection writer queue, and once the socket backs up, frames are
// dropped and accounted rather than ever parking the caller. The split
// counters must keep summing to the total under concurrency.
func TestTCPShedNeverBlocksEventLoop(t *testing.T) {
	book := map[wire.NodeID]string{0: "127.0.0.1:0"}
	rep, err := ListenTCPOpts(0, book, Options{WriteTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("ListenTCPOpts: %v", err)
	}
	defer rep.Close()

	cid := wire.ClientIDBase
	nc := rawDialFrame(t, rep.Addr(), &wire.Envelope{From: cid, To: 0, Msg: &wire.RequestMsg{
		Req: wire.Request{Client: cid, Seq: 1, Kind: wire.KindWrite, Op: []byte("x")},
	}})
	defer nc.Close()
	tcpRecv(t, rep, 2*time.Second) // route learned

	// Far more sheds than the writer queue holds, with fat results so the
	// kernel socket buffers saturate quickly. A Send that ever blocked on
	// the stalled connection would blow the deadline by orders of
	// magnitude.
	const k = 4 * replyQueue
	body := make([]byte, 200)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < k; i++ {
			rep.Send(&wire.Envelope{To: cid, Msg: &wire.ReplyMsg{
				Rep: wire.Reply{Client: cid, Seq: uint64(i), Status: wire.StatusOverload,
					RetryAfterMS: 5, Result: body},
			}})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Send burst blocked on a non-reading client")
	}

	ctr := tcpCounters(rep)
	shed, slow, total := ctr("drop_reply_shed_total"), ctr("drop_reply_slow_client_total"), ctr("drop_reply_overflow_total")
	if shed+slow != total {
		t.Fatalf("cause split %d+%d != overflow total %d", shed, slow, total)
	}
	if total > 0 && shed == 0 {
		t.Fatalf("overflow drops %d attributed to nothing shed in an all-shed burst", total)
	}
}
