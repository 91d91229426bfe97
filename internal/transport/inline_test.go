package transport

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"gridrep/internal/wire"
)

// seqEnv is a request to replica 0 from client c carrying seq and an op
// of size bytes.
func seqEnv(c wire.NodeID, seq uint64, size int) *wire.Envelope {
	return &wire.Envelope{To: 0, Msg: &wire.RequestMsg{Req: wire.Request{
		Client: c, Seq: seq, Kind: wire.KindWrite, Op: make([]byte, size),
	}}}
}

// TestTCPSyncSendStalledPeer: a DialTCPSync client whose peer stops
// reading. Every Send returns at once while the socket buffer fills:
// the frame the kernel takes only part of leaves its tail to the pump,
// and the frames after it queue behind that tail. Once the peer reads
// again, every frame arrives whole and in order.
func TestTCPSyncSendStalledPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	cli := DialTCPSync(wire.ClientIDBase, map[wire.NodeID]string{0: ln.Addr().String()})
	defer cli.Close()
	// No ping and a long write deadline: the peer is not reading.
	cli.opts.PingEvery, cli.opts.PingTimeout = time.Hour, time.Hour
	cli.opts.WriteTimeout = time.Minute

	// The first frame starts the supervisor and goes through its queue.
	const size = 64 << 10
	cli.Send(seqEnv(wire.ClientIDBase, 0, size))
	var peer net.Conn
	select {
	case peer = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("client never connected")
	}
	defer peer.Close()
	cli.mu.Lock()
	sup := cli.sups[0]
	cli.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); !sup.isUp() || sup.unsent.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the first frame never left the queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Send until a frame has to queue: the peer reads nothing, so the
	// socket buffer fills and an inline write comes up short. Then a
	// few more, which all queue behind it.
	var slowest time.Duration
	sent, extra := uint64(1), 0
	for extra < 8 {
		if sent > 4096 {
			t.Fatalf("%d frames of %d B and the socket never filled", sent, size)
		}
		start := time.Now()
		cli.Send(seqEnv(wire.ClientIDBase, sent, size))
		if d := time.Since(start); d > slowest {
			slowest = d
		}
		sent++
		if sup.unsent.Load() > 0 {
			extra++
		}
	}
	if slowest > time.Second {
		t.Fatalf("a Send blocked %v on a peer that does not read", slowest)
	}

	peer.SetReadDeadline(time.Now().Add(20 * time.Second))
	r := bufio.NewReader(peer)
	for want := uint64(0); want < sent; {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			t.Fatalf("frame %d of %d: %v", want, sent, err)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			t.Fatalf("frame %d of %d: %v", want, sent, err)
		}
		if buf[0] != frameEnv {
			continue
		}
		env, err := wire.DecodeEnvelopeOwned(buf[1:])
		if err != nil {
			t.Fatalf("frame %d torn: %v", want, err)
		}
		if got := env.Msg.(*wire.RequestMsg).Req.Seq; got != want {
			t.Fatalf("frame %d arrived as %d: reordered or lost", want, got)
		}
		want++
	}
	t.Logf("%d frames of %d B; slowest Send %v", sent, size, slowest)
}

// TestTCPSyncSendConcurrentFIFO: goroutines sharing a DialTCPSync
// transport, each writing inline when the link is idle and queueing
// when another write is in progress. Each goroutine's frames arrive in
// the order it sent them.
func TestTCPSyncSendConcurrentFIFO(t *testing.T) {
	reps, book := startTCPCluster(t, 1)
	cli := DialTCPSync(wire.ClientIDBase, book)
	defer cli.Close()
	const senders, each = 4, 400
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(c wire.NodeID) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				cli.Send(seqEnv(c, uint64(i), 16+i%512))
			}
		}(wire.ClientIDBase + wire.NodeID(g))
	}
	next := make(map[wire.NodeID]uint64)
	for i := 0; i < senders*each; i++ {
		req := tcpRecv(t, reps[0], 10*time.Second).Msg.(*wire.RequestMsg).Req
		if req.Seq != next[req.Client] {
			t.Fatalf("client %v: seq %d arrived, want %d", req.Client, req.Seq, next[req.Client])
		}
		next[req.Client]++
	}
	wg.Wait()
	if sent, fl := tcpCounters(cli)("sent_total"), tcpCounters(cli)("flushes_total"); sent != senders*each || fl == 0 || fl > sent {
		t.Fatalf("sent_total = %d, flushes_total = %d; want %d frames in 1..%d writes", sent, fl, senders*each, sent)
	}
}
