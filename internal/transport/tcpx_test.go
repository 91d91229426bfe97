package transport

import (
	"testing"
	"time"

	"gridrep/internal/metrics"
	"gridrep/internal/wire"
)

// startTCPCluster starts nReplicas listening transports on ephemeral ports
// and returns them plus a shared address book.
func startTCPCluster(t *testing.T, nReplicas int) ([]*TCP, map[wire.NodeID]string) {
	t.Helper()
	book := make(map[wire.NodeID]string)
	var reps []*TCP
	for i := 0; i < nReplicas; i++ {
		id := wire.NodeID(i)
		book[id] = "127.0.0.1:0"
		tr, err := ListenTCP(id, book)
		if err != nil {
			t.Fatalf("ListenTCP(%v): %v", id, err)
		}
		book[id] = tr.Addr() // replace :0 with the bound port
		reps = append(reps, tr)
		t.Cleanup(func() { tr.Close() })
	}
	// Rebuild every replica's book with the final addresses.
	for _, tr := range reps {
		for k, v := range book {
			tr.SetAddr(k, v)
		}
	}
	return reps, book
}

// fastOpts are aggressive self-healing timings for churn tests.
func fastOpts() Options {
	return Options{
		BackoffMin:   2 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		WriteTimeout: time.Second,
		PingEvery:    10 * time.Millisecond,
		PingTimeout:  80 * time.Millisecond,
	}
}

// tcpCounters publishes tr's instruments into a fresh registry and
// returns a reader for them, named without the gridrep_tcp_ prefix.
func tcpCounters(tr *TCP) func(name string) int64 {
	reg := metrics.NewRegistry()
	tr.RegisterMetrics(reg)
	return func(name string) int64 { return reg.Value("gridrep_tcp_" + name) }
}

func tcpRecv(t *testing.T, tr *TCP, within time.Duration) *wire.Envelope {
	t.Helper()
	select {
	case env, ok := <-tr.Recv():
		if !ok {
			t.Fatal("recv channel closed")
		}
		return env
	case <-time.After(within):
		t.Fatal("timed out waiting for TCP delivery")
		return nil
	}
}

func TestTCPReplicaToReplica(t *testing.T) {
	reps, _ := startTCPCluster(t, 2)
	env := hb(0, 9)
	env.To = 1
	reps[0].Send(env)
	got := tcpRecv(t, reps[1], 2*time.Second)
	if got.From != 0 || got.Msg.(*wire.Heartbeat).Epoch != 9 {
		t.Errorf("got %v from %v", got.Msg, got.From)
	}
}

func TestTCPClientRoundTrip(t *testing.T) {
	reps, book := startTCPCluster(t, 1)
	cli := DialTCP(wire.ClientIDBase, book)
	defer cli.Close()

	// Client sends a request; replica replies over the learned route.
	cli.Send(&wire.Envelope{To: 0, Msg: &wire.RequestMsg{
		Req: wire.Request{Client: wire.ClientIDBase, Seq: 7, Kind: wire.KindRead, Op: []byte("x")},
	}})
	got := tcpRecv(t, reps[0], 2*time.Second)
	req := got.Msg.(*wire.RequestMsg).Req
	if req.Seq != 7 || string(req.Op) != "x" {
		t.Fatalf("request mangled: %+v", req)
	}
	reps[0].Send(&wire.Envelope{To: wire.ClientIDBase, Msg: &wire.ReplyMsg{
		Rep: wire.Reply{Client: wire.ClientIDBase, Seq: 7, Status: wire.StatusOK, Result: []byte("v")},
	}})
	rep := tcpRecv(t, cli, 2*time.Second).Msg.(*wire.ReplyMsg).Rep
	if rep.Seq != 7 || string(rep.Result) != "v" {
		t.Fatalf("reply mangled: %+v", rep)
	}
}

func TestTCPReplyWithoutRouteDropped(t *testing.T) {
	reps, _ := startTCPCluster(t, 1)
	// No route to this client was ever learned; Send must not panic.
	reps[0].Send(&wire.Envelope{To: wire.ClientIDBase + 5, Msg: &wire.ReplyMsg{}})
}

func TestTCPManyFrames(t *testing.T) {
	reps, _ := startTCPCluster(t, 2)
	const k = 1000
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
			t.Fatalf("TCP must be FIFO: got epoch %d at position %d", got.Epoch, i)
		}
	}
}

func TestTCPLargePayload(t *testing.T) {
	reps, book := startTCPCluster(t, 1)
	cli := DialTCP(wire.ClientIDBase, book)
	defer cli.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	cli.Send(&wire.Envelope{To: 0, Msg: &wire.RequestMsg{
		Req: wire.Request{Client: wire.ClientIDBase, Seq: 1, Kind: wire.KindWrite, Op: big},
	}})
	got := tcpRecv(t, reps[0], 5*time.Second).Msg.(*wire.RequestMsg).Req
	if len(got.Op) != len(big) || got.Op[12345] != big[12345] {
		t.Fatal("large payload corrupted")
	}
}

func TestTCPClose(t *testing.T) {
	reps, book := startTCPCluster(t, 1)
	cli := DialTCP(wire.ClientIDBase, book)
	cli.Send(&wire.Envelope{To: 0, Msg: &wire.Heartbeat{From: wire.ClientIDBase}})
	tcpRecv(t, reps[0], 2*time.Second)
	if err := cli.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, ok := <-cli.Recv(); ok {
		t.Fatal("recv channel must close")
	}
	cli.Close() // idempotent
	// Replica can still be closed cleanly with a dead peer route.
	if err := reps[0].Close(); err != nil {
		t.Fatalf("replica Close: %v", err)
	}
}

func TestTCPSendToUnknownPeer(t *testing.T) {
	tr := DialTCP(wire.ClientIDBase, map[wire.NodeID]string{})
	defer tr.Close()
	tr.Send(&wire.Envelope{To: 3, Msg: &wire.Heartbeat{}}) // no address: dropped
}

func TestTCPDialFailure(t *testing.T) {
	// Address book points at a port nobody listens on.
	tr := DialTCP(wire.ClientIDBase, map[wire.NodeID]string{0: "127.0.0.1:1"})
	defer tr.Close()
	tr.Send(&wire.Envelope{To: 0, Msg: &wire.Heartbeat{}}) // must not panic
}

// TestTCPSupervisorReconnect kills a replica's listener mid-traffic,
// restarts it on the same address, and asserts the peer supervisor
// reconnects and traffic resumes (the churn case the paper's PlanetLab
// deployment had to survive).
func TestTCPSupervisorReconnect(t *testing.T) {
	a, err := ListenTCPOpts(0, map[wire.NodeID]string{0: "127.0.0.1:0"}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCPOpts(1, map[wire.NodeID]string{1: "127.0.0.1:0"}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	addrB := b.Addr()
	a.SetAddr(1, addrB)
	b.SetAddr(0, a.Addr())

	env := hb(0, 1)
	env.To = 1
	a.Send(env)
	if got := tcpRecv(t, b, 2*time.Second).Msg.(*wire.Heartbeat); got.Epoch != 1 {
		t.Fatalf("pre-churn epoch = %d, want 1", got.Epoch)
	}

	// Kill the listener mid-traffic.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// A message sent into the outage sits in the supervisor queue (or is
	// dropped, best effort) — it must never block or panic.
	env = hb(0, 2)
	env.To = 1
	a.Send(env)

	// Restart on the same address. Retry briefly: the OS may need a
	// moment to release the port to a fresh listener.
	var b2 *TCP
	deadline := time.Now().Add(5 * time.Second)
	for {
		b2, err = ListenTCPOpts(1, map[wire.NodeID]string{1: addrB}, fastOpts())
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addrB, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer b2.Close()

	// Traffic must resume: send until the restarted listener hears us.
	got := make(chan uint64, 1)
	go func() {
		for env := range b2.Recv() {
			if hb, ok := env.Msg.(*wire.Heartbeat); ok && hb.Epoch >= 3 {
				select {
				case got <- hb.Epoch:
				default:
				}
				return
			}
		}
	}()
	deadline = time.Now().Add(10 * time.Second)
	for {
		env := hb(0, 3)
		env.To = 1
		a.Send(env)
		select {
		case <-got:
		case <-time.After(20 * time.Millisecond):
			if time.Now().Before(deadline) {
				continue
			}
			t.Fatal("traffic did not resume after listener restart")
		}
		break
	}
	ctr := tcpCounters(a)
	if r, d := ctr("reconnects_total"), ctr("dials_total"); r < 1 || d < 2 {
		t.Errorf("reconnects = %d, dials = %d; want >=1 reconnect and >=2 dials", r, d)
	}
}

// TestTCPHealthCallback asserts peer up/down transitions reach the
// registered health callback when the remote listener dies.
func TestTCPHealthCallback(t *testing.T) {
	b, err := ListenTCPOpts(1, map[wire.NodeID]string{1: "127.0.0.1:0"}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	type event struct {
		peer wire.NodeID
		up   bool
	}
	events := make(chan event, 16)
	a := DialTCPOpts(0, map[wire.NodeID]string{1: b.Addr()}, fastOpts())
	defer a.Close()
	a.SetHealth(func(peer wire.NodeID, up bool) {
		select {
		case events <- event{peer, up}:
		default:
		}
	})

	env := hb(0, 1)
	env.To = 1
	a.Send(env)
	select {
	case ev := <-events:
		if ev.peer != 1 || !ev.up {
			t.Fatalf("first event = %+v, want peer 1 up", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no up event after connect")
	}

	b.Close()
	select {
	case ev := <-events:
		if ev.peer != 1 || ev.up {
			t.Fatalf("second event = %+v, want peer 1 down", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no down event after listener death")
	}
}

// TestTCPPingRTT checks that supervised links exchange transport
// heartbeats and measure a round trip.
func TestTCPPingRTT(t *testing.T) {
	b, err := ListenTCPOpts(1, map[wire.NodeID]string{1: "127.0.0.1:0"}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a := DialTCPOpts(0, map[wire.NodeID]string{1: b.Addr()}, fastOpts())
	defer a.Close()
	env := hb(0, 1)
	env.To = 1
	a.Send(env)
	tcpRecv(t, b, 2*time.Second)

	ctr := tcpCounters(a)
	deadline := time.Now().Add(5 * time.Second)
	for {
		pings, pongs, rtt := ctr("pings_sent_total"), ctr("pongs_recvd_total"), ctr("last_rtt_nanoseconds")
		if pings >= 1 && pongs >= 1 && rtt > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no ping round trip: pings %d, pongs %d, rtt %dns", pings, pongs, rtt)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPPeerRTT: a supervised link has no RTT estimate until it is
// dialed and a pong comes back, then a positive one, which is what RTT
// placement reads (DESIGN.md §16); a peer outside the book has none.
func TestTCPPeerRTT(t *testing.T) {
	b, err := ListenTCPOpts(1, map[wire.NodeID]string{1: "127.0.0.1:0"}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenTCPOpts(0, map[wire.NodeID]string{0: "127.0.0.1:0", 1: b.Addr()}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, ok := a.PeerRTT(1); ok {
		t.Fatal("an RTT estimate for a peer never dialed")
	}
	env := hb(0, 1)
	env.To = 1
	a.Send(env)
	tcpRecv(t, b, 2*time.Second)

	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if rtt, ok := a.PeerRTT(1); ok {
			if rtt <= 0 {
				t.Fatalf("PeerRTT = %v, want a positive round trip", rtt)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no RTT estimate after the link came up")
		}
	}
	if _, ok := a.PeerRTT(7); ok {
		t.Fatal("an RTT estimate for a peer outside the book")
	}
}
