package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrep/internal/metrics"
	"gridrep/internal/wire"
)

// TestTCPSinkDelivery: the TCP transport's per-connection decode
// goroutines call the sink directly — possibly concurrently, one caller
// per connection — and Recv stays silent.
func TestTCPSinkDelivery(t *testing.T) {
	reps, _ := startTCPCluster(t, 3)
	var calls atomic.Int64
	got := make(chan *wire.Envelope, 64)
	reps[0].SetSink(func(env *wire.Envelope) {
		calls.Add(1)
		got <- env
	})

	// Two distinct peers → two accept-side connections → two decode
	// goroutines invoking the sink.
	const per = 10
	var wg sync.WaitGroup
	for _, src := range []int{1, 2} {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				env := hb(wire.NodeID(src), uint64(i))
				env.To = 0
				reps[src].Send(env)
			}
		}(src)
	}
	wg.Wait()
	seen := map[wire.NodeID]int{}
	for i := 0; i < 2*per; i++ {
		select {
		case env := <-got:
			seen[env.From]++
		case <-time.After(5 * time.Second):
			t.Fatalf("sink delivered %d/%d envelopes", i, 2*per)
		}
	}
	if seen[1] != per || seen[2] != per {
		t.Fatalf("per-peer counts %v, want %d each", seen, per)
	}
	select {
	case env := <-reps[0].Recv():
		t.Fatalf("Recv must be silent with a sink set, got %+v", env)
	default:
	}
}

// TestTCPDecodeStageOrdering: frames of one connection are decoded and
// delivered in wire order (the FIFO-per-link contract of §3.1 that the
// protocol's links assume).
func TestTCPDecodeStageOrdering(t *testing.T) {
	reps, _ := startTCPCluster(t, 2)
	const k = 500
	go func() {
		for i := 0; i < k; i++ {
			env := hb(0, uint64(i))
			env.To = 1
			reps[0].Send(env)
		}
	}()
	for i := 0; i < k; i++ {
		got := tcpRecv(t, reps[1], 5*time.Second).Msg.(*wire.Heartbeat)
		if got.Epoch != uint64(i) {
			t.Fatalf("read loop reordered: epoch %d at position %d", got.Epoch, i)
		}
	}
}

// TestTCPDecodeLatencyHistogram: the read loop times every frame's
// decode into gridrep_tcp_decode_seconds.
func TestTCPDecodeLatencyHistogram(t *testing.T) {
	reps, _ := startTCPCluster(t, 2)
	reg := metrics.NewRegistry()
	reps[1].RegisterMetrics(reg)
	const k = 20
	go func() {
		for i := 0; i < k; i++ {
			env := hb(0, uint64(i))
			env.To = 1
			reps[0].Send(env)
		}
	}()
	for i := 0; i < k; i++ {
		tcpRecv(t, reps[1], 5*time.Second)
	}
	m, ok := metrics.Find(reg.Snapshot(), "gridrep_tcp_decode_seconds")
	if !ok || m.Hist == nil {
		t.Fatal("decode histogram not registered")
	}
	if m.Hist.Count < k {
		t.Fatalf("decode histogram count = %d, want >= %d", m.Hist.Count, k)
	}
}

// TestTCPReplyWriterQueue: accept-side replies leave through a
// per-connection writer goroutine; a burst far larger than any socket
// buffer must still arrive completely and in order.
func TestTCPReplyWriterQueue(t *testing.T) {
	reps, book := startTCPCluster(t, 1)
	cli := DialTCP(wire.ClientIDBase, book)
	defer cli.Close()

	// Teach replica 0 the client route.
	cli.Send(&wire.Envelope{To: 0, Msg: &wire.RequestMsg{
		Req: wire.Request{Client: wire.ClientIDBase, Seq: 1, Kind: wire.KindRead, Op: []byte("x")},
	}})
	tcpRecv(t, reps[0], 2*time.Second)

	const k = 2000
	go func() {
		for i := 0; i < k; i++ {
			reps[0].Send(&wire.Envelope{To: wire.ClientIDBase, Msg: &wire.ReplyMsg{
				Rep: wire.Reply{Client: wire.ClientIDBase, Seq: uint64(i), Status: wire.StatusOK},
			}})
		}
	}()
	for i := 0; i < k; i++ {
		rep := tcpRecv(t, cli, 5*time.Second).Msg.(*wire.ReplyMsg).Rep
		if rep.Seq != uint64(i) {
			t.Fatalf("reply writer reordered: seq %d at position %d", rep.Seq, i)
		}
	}
	if d := tcpCounters(reps[0])("drop_reply_overflow_total"); d != 0 {
		t.Fatalf("reply overflow drops = %d with a draining client", d)
	}
}
