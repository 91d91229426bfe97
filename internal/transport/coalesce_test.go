package transport

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrep/internal/wire"
)

// countingConn is one end of a net.Pipe that counts Write calls, one per
// syscall a socket would make. The first Write blocks until hold is
// closed: the writer is stuck on a slow socket.
type countingConn struct {
	net.Conn
	writes atomic.Int64
	hold   chan struct{}
}

func (c *countingConn) Write(p []byte) (int, error) {
	if c.writes.Add(1) == 1 {
		<-c.hold
	}
	return c.Conn.Write(p)
}

// frame is one frame as it arrived on the wire.
type frame struct {
	kind    byte
	payload []byte
}

// readFrames parses frames off r onto a channel until r fails.
func readFrames(r io.Reader) <-chan frame {
	// Buffered well past a burst, so the writer under test seldom waits
	// on the test's own reads.
	out := make(chan frame, 1024)
	go func() {
		defer close(out)
		br := bufio.NewReader(r)
		for {
			n, err := binary.ReadUvarint(br)
			if err != nil || n == 0 {
				return
			}
			buf := make([]byte, n)
			if _, err := io.ReadFull(br, buf); err != nil {
				return
			}
			out <- frame{kind: buf[0], payload: buf[1:]}
		}
	}()
	return out
}

// nextEnv returns the next envelope frame, skipping heartbeats.
func nextEnv(t *testing.T, frames <-chan frame) frame {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatal("connection closed before every frame arrived")
			}
			if f.kind == frameEnv {
				return f
			}
		case <-timeout:
			t.Fatal("timed out waiting for a frame")
		}
	}
}

// coalesceRig is a writer's connection over a counting pipe: the TCP
// whose counters the writer books into, the connection, and the frames
// as the far end reads them.
func coalesceRig(t *testing.T) (*TCP, *tcpConn, *countingConn, <-chan frame) {
	t.Helper()
	near, far := net.Pipe()
	cc := &countingConn{Conn: near, hold: make(chan struct{})}
	t.Cleanup(func() { near.Close(); far.Close() })
	return newTCP(wire.ClientIDBase, nil, fastOpts()), newTCPConn(cc, time.Second), cc, readFrames(far)
}

// awaitWrites waits until the writer has made n Write calls.
func awaitWrites(t *testing.T, cc *countingConn, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for cc.writes.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("writer made %d writes, want %d", cc.writes.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkCoalesced drives one writer through the coalescing case: frame 0
// blocks the writer in its first Write, 32 more are queued behind it,
// and once the socket frees up all 33 arrive in order in at most two
// Writes, each counted as sent, the lot in two flushes.
func checkCoalesced(t *testing.T, tr *TCP, cc *countingConn, frames <-chan frame, q chan<- *[]byte) {
	t.Helper()
	const queued = 32
	q <- newBuf(0)
	awaitWrites(t, cc, 1)
	for i := 1; i <= queued; i++ {
		q <- newBuf(byte(i))
	}
	close(cc.hold)
	for i := 0; i <= queued; i++ {
		if f := nextEnv(t, frames); len(f.payload) != 1 || f.payload[0] != byte(i) {
			t.Fatalf("frame %d arrived as %v: reordered or torn", i, f.payload)
		}
	}
	if w := cc.writes.Load(); w > 2 {
		t.Fatalf("%d frames took %d writes, want at most 2 (one per burst)", queued+1, w)
	}
	// The writer books a burst once its Flush returns, which may be just
	// after the far end has read it.
	c := tcpCounters(tr)
	for deadline := time.Now().Add(5 * time.Second); c("flushes_total") < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if sent, fl := c("sent_total"), c("flushes_total"); sent != queued+1 || fl != 2 {
		t.Fatalf("sent_total = %d, flushes_total = %d; want every frame counted (%d) in 2 flushes", sent, fl, queued+1)
	}
}

// TestTCPReplyWriterCoalescesQueuedFrames: the accept-side reply writer
// writes the reply it wakes for together with every reply queued behind
// it, one flush per burst.
func TestTCPReplyWriterCoalescesQueuedFrames(t *testing.T) {
	tr, conn, cc, frames := coalesceRig(t)
	conn.wq = make(chan *[]byte, replyQueue)
	conn.wstop = make(chan struct{})
	tr.wg.Add(1)
	go tr.replyLoop(conn)
	defer tr.wg.Wait()
	defer close(conn.wstop)
	checkCoalesced(t, tr, cc, frames, conn.wq)
}

// supervisorPump runs a supervisor's pump over conn until the test ends.
func supervisorPump(t *testing.T, tr *TCP, conn *tcpConn) *supervisor {
	t.Helper()
	s := &supervisor{t: tr, peer: 1, q: make(chan *[]byte, 4096), stop: make(chan struct{})}
	done := make(chan pumpResult, 1)
	go func() { done <- s.pump(conn, make(chan struct{}), make(chan int64)) }()
	t.Cleanup(func() {
		close(s.stop)
		if res := <-done; res != pumpStopped {
			t.Errorf("pump ended with %v, want stopped", res)
		}
	})
	return s
}

// TestTCPSupervisorCoalescesQueuedFrames: a peer supervisor's pump
// coalesces its queue the same way.
func TestTCPSupervisorCoalescesQueuedFrames(t *testing.T) {
	tr, conn, cc, frames := coalesceRig(t)
	tr.opts.PingEvery = time.Hour // no heartbeat among the counted writes
	s := supervisorPump(t, tr, conn)
	checkCoalesced(t, tr, cc, frames, s.q)
}

// TestTCPSupervisorCoalescingKeepsPings: under a queue that never
// drains, the pump still sends its heartbeats between bursts — a burst
// is bounded (frameBurst) — and every envelope arrives in order.
func TestTCPSupervisorCoalescingKeepsPings(t *testing.T) {
	tr, conn, cc, frames := coalesceRig(t)
	tr.opts.PingEvery = 5 * time.Millisecond
	tr.opts.PingTimeout = time.Hour // the far end never answers
	close(cc.hold)
	s := supervisorPump(t, tr, conn)

	const sustain = 150 * time.Millisecond
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // sustained traffic: keep the queue non-empty
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case s.q <- newBuf(byte(i)):
			}
		}
	}()
	pings, next := 0, 0
	for end := time.After(sustain); ; {
		select {
		case f := <-frames:
			switch f.kind {
			case framePing:
				pings++
			case frameEnv:
				if f.payload[0] != byte(next) {
					t.Fatalf("envelope %d arrived as %d: reordered", next, f.payload[0])
				}
				next++
			}
			continue
		case <-end:
		}
		break
	}
	close(stop)
	wg.Wait()
	go func() { // drain the rest so the pump never blocks on the pipe
		for range frames {
		}
	}()
	if pings == 0 || tcpCounters(tr)("pings_sent_total") == 0 {
		t.Fatalf("no ping in %v of sustained traffic (%d envelopes)", sustain, next)
	}
	t.Logf("%d pings beside %d envelopes in %v", pings, next, sustain)
}
