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

// dialPair builds a listening replica transport and a DialTCPSync
// client of it, the pair gridrep.Dial sets up, warmed in both
// directions: the replica has learned the client's reply route.
func dialPair(b testing.TB) (rep, cli *TCP) {
	b.Helper()
	rep, err := ListenTCPOpts(0, map[wire.NodeID]string{0: "127.0.0.1:0"}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	cli = DialTCPSync(wire.ClientIDBase, map[wire.NodeID]string{0: rep.Addr()})
	b.Cleanup(func() { cli.Close(); rep.Close() })
	cli.Send(benchEnv(0))
	for _, tr := range []*TCP{rep, cli} {
		select {
		case <-tr.Recv():
		case <-time.After(5 * time.Second):
			b.Fatal("transport warmup timed out")
		}
		if tr == rep {
			rep.Send(benchEnv(wire.ClientIDBase))
		}
	}
	return rep, cli
}

// BenchmarkTCPDialRoundTrip is BenchmarkTCPRoundTrip between a
// synchronous client's transport and a replica: the request leaves on
// the caller's goroutine (an inline write), the reply through the
// replica's reply writer.
func BenchmarkTCPDialRoundTrip(b *testing.B) {
	rep, cli := dialPair(b)
	req, reply := benchEnv(0), benchEnv(wire.ClientIDBase)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cli.Send(req)
		if _, ok := <-rep.Recv(); !ok {
			b.Fatal("replica recv closed")
		}
		rep.Send(reply)
		if _, ok := <-cli.Recv(); !ok {
			b.Fatal("client recv closed")
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

// BenchmarkTCPBurst measures a burst on one supervised link: 16 request
// frames enqueued back to back to one peer, timed until all 16 are
// received — the leader fanning a wave's replies or a backup's votes out
// faster than one write per frame drains them.
func BenchmarkTCPBurst(b *testing.B) {
	const burst = 16
	t0, t1 := tcpPair(b)
	env := benchEnv(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			t0.Send(env)
		}
		for j := 0; j < burst; j++ {
			if _, ok := <-t1.Recv(); !ok {
				b.Fatal("t1 recv closed")
			}
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
