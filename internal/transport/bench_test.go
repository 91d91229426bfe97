package transport

import (
	"testing"
	"time"

	"gridrep/internal/netem"
	"gridrep/internal/wire"
)

// benchEnv is a mid-size write request, the dominant client→replica
// message under load.
func benchEnv(to wire.NodeID) *wire.Envelope {
	return &wire.Envelope{
		To: to,
		Msg: &wire.RequestMsg{Req: wire.Request{
			Client: wire.ClientIDBase + 1, Seq: 1, Kind: wire.KindWrite,
			Op: make([]byte, 128),
		}},
	}
}

// benchWaveEnv is a loaded accept wave, the dominant replica→replica
// message under write load.
func benchWaveEnv(to wire.NodeID) *wire.Envelope {
	entries := make([]wire.Entry, 4)
	for i := range entries {
		e := wire.Entry{
			Instance: uint64(100 + i),
			Bal:      wire.Ballot{Round: 3, Node: 1},
			Prop: wire.Proposal{
				Reqs: []wire.Request{{
					Client: wire.ClientIDBase + wire.NodeID(i), Seq: uint64(i),
					Kind: wire.KindWrite, Op: make([]byte, 128),
				}},
				Results: [][]byte{make([]byte, 32)},
			},
		}
		if i == len(entries)-1 {
			e.Prop.HasState = true
			e.Prop.Kind = wire.StateFull
			e.Prop.State = make([]byte, 1024)
		}
		entries[i] = e
	}
	return &wire.Envelope{To: to, Msg: &wire.Accept{
		Bal: wire.Ballot{Round: 3, Node: 1}, Entries: entries, Commit: 99,
	}}
}

// tcpPair builds two connected TCP transports on loopback and waits for
// the 0→1 supervised link to come up.
func tcpPair(b testing.TB) (*TCP, *TCP) {
	b.Helper()
	book := map[wire.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	t0, err := ListenTCPOpts(0, book, Options{})
	if err != nil {
		b.Fatal(err)
	}
	book0 := map[wire.NodeID]string{0: t0.Addr(), 1: "127.0.0.1:0"}
	t1, err := ListenTCPOpts(1, map[wire.NodeID]string{0: t0.Addr(), 1: book0[1]}, Options{})
	if err != nil {
		t0.Close()
		b.Fatal(err)
	}
	t0.SetAddr(1, t1.Addr())
	b.Cleanup(func() { t0.Close(); t1.Close() })
	// Prime both directions so supervisors are dialed and warm.
	t0.Send(benchEnv(1))
	t1.Send(benchEnv(0))
	for _, tr := range []*TCP{t0, t1} {
		select {
		case <-tr.Recv():
		case <-time.After(5 * time.Second):
			b.Fatal("transport warmup timed out")
		}
	}
	return t0, t1
}

// BenchmarkTCPRoundTrip measures the full tcpx hot path: encode + frame +
// write + read + decode in both directions (one request each way per op).
// Allocations are whole-process, so the number covers sender and receiver
// goroutines together.
func BenchmarkTCPRoundTrip(b *testing.B) {
	t0, t1 := tcpPair(b)
	env0, env1 := benchEnv(1), benchEnv(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0.Send(env0)
		if _, ok := <-t1.Recv(); !ok {
			b.Fatal("t1 recv closed")
		}
		t1.Send(env1)
		if _, ok := <-t0.Recv(); !ok {
			b.Fatal("t0 recv closed")
		}
	}
}

// BenchmarkTCPWaveRoundTrip is BenchmarkTCPRoundTrip with a loaded
// accept-wave payload 0→1 (leader→backup) and a small ack back.
func BenchmarkTCPWaveRoundTrip(b *testing.B) {
	t0, t1 := tcpPair(b)
	wave, ack := benchWaveEnv(1), benchEnv(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0.Send(wave)
		if _, ok := <-t1.Recv(); !ok {
			b.Fatal("t1 recv closed")
		}
		t1.Send(ack)
		if _, ok := <-t0.Recv(); !ok {
			b.Fatal("t0 recv closed")
		}
	}
}

// BenchmarkNetworkRoundTrip measures the in-process transport's codec
// round trip (encode + decode per Send) on the zero-delay loopback
// profile, the substrate of the in-process cluster.
func BenchmarkNetworkRoundTrip(b *testing.B) {
	n := NewNetwork(netem.Loopback().NewModel(1))
	defer n.Close()
	ep0, err := n.Endpoint(0)
	if err != nil {
		b.Fatal(err)
	}
	ep1, err := n.Endpoint(1)
	if err != nil {
		b.Fatal(err)
	}
	env0, env1 := benchEnv(1), benchEnv(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep0.Send(env0)
		if _, ok := <-ep1.Recv(); !ok {
			b.Fatal("ep1 recv closed")
		}
		ep1.Send(env1)
		if _, ok := <-ep0.Recv(); !ok {
			b.Fatal("ep0 recv closed")
		}
	}
}

// BenchmarkNetworkWaveSend measures one-way accept-wave delivery on the
// in-process transport.
func BenchmarkNetworkWaveSend(b *testing.B) {
	n := NewNetwork(netem.Loopback().NewModel(1))
	defer n.Close()
	ep0, err := n.Endpoint(0)
	if err != nil {
		b.Fatal(err)
	}
	ep1, err := n.Endpoint(1)
	if err != nil {
		b.Fatal(err)
	}
	wave := benchWaveEnv(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep0.Send(wave)
		if _, ok := <-ep1.Recv(); !ok {
			b.Fatal("ep1 recv closed")
		}
	}
}
