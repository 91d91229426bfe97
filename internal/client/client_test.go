package client

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"gridrep/internal/netem"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// fakeReplica runs a scripted responder on the network: script maps a
// request Seq to the reply behaviour.
type fakeReplica struct {
	ep     *transport.Endpoint
	handle func(req wire.Request, reply func(wire.Reply))
	stop   chan struct{}
}

func startFake(t *testing.T, net *transport.Network, id wire.NodeID,
	handle func(req wire.Request, reply func(wire.Reply))) *fakeReplica {
	t.Helper()
	ep, err := net.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeReplica{ep: ep, handle: handle, stop: make(chan struct{})}
	go func() {
		for {
			select {
			case <-f.stop:
				return
			case env, ok := <-ep.Recv():
				if !ok {
					return
				}
				if rm, isReq := env.Msg.(*wire.RequestMsg); isReq {
					req := rm.Req
					f.handle(req, func(rep wire.Reply) {
						rep.Client = req.Client
						rep.Seq = req.Seq
						ep.Send(&wire.Envelope{To: req.Client, Msg: &wire.ReplyMsg{Rep: rep}})
					})
				}
			}
		}
	}()
	t.Cleanup(func() { close(f.stop) })
	return f
}

func newClientNet(t *testing.T) *transport.Network {
	t.Helper()
	n := transport.NewNetwork(netem.Loopback().NewModel(1))
	t.Cleanup(func() { n.Close() })
	return n
}

func newTestClient(t *testing.T, net *transport.Network, replicas []wire.NodeID) *Client {
	t.Helper()
	ep, err := net.Endpoint(wire.ClientIDBase + 1)
	if err != nil {
		t.Fatal(err)
	}
	cli := New(Config{
		Transport:  ep,
		Replicas:   replicas,
		RetryEvery: 30 * time.Millisecond,
		Deadline:   500 * time.Millisecond,
	})
	t.Cleanup(cli.Close)
	return cli
}

func TestClientBroadcastsToAllReplicas(t *testing.T) {
	net := newClientNet(t)
	got := make(chan wire.NodeID, 8)
	for i := 0; i < 3; i++ {
		id := wire.NodeID(i)
		reply := i == 0 // only the "leader" replies
		startFake(t, net, id, func(req wire.Request, send func(wire.Reply)) {
			got <- id
			if reply {
				send(wire.Reply{Status: wire.StatusOK, Result: []byte("r")})
			}
		})
	}
	cli := newTestClient(t, net, []wire.NodeID{0, 1, 2})
	res, err := cli.Write([]byte("op"))
	if err != nil || string(res) != "r" {
		t.Fatalf("write = %q, %v", res, err)
	}
	seen := map[wire.NodeID]bool{}
	timeout := time.After(time.Second)
	for len(seen) < 3 {
		select {
		case id := <-got:
			seen[id] = true
		case <-timeout:
			t.Fatalf("request reached only %v", seen)
		}
	}
}

func TestClientRetriesUntilReply(t *testing.T) {
	net := newClientNet(t)
	count := 0
	startFake(t, net, 0, func(req wire.Request, send func(wire.Reply)) {
		count++
		if count >= 3 { // ignore the first two transmissions
			send(wire.Reply{Status: wire.StatusOK})
		}
	})
	cli := newTestClient(t, net, []wire.NodeID{0})
	if _, err := cli.Write([]byte("op")); err != nil {
		t.Fatalf("write with retries: %v", err)
	}
	if count < 3 {
		t.Fatalf("replica saw %d transmissions, want >= 3", count)
	}
}

func TestClientTimeout(t *testing.T) {
	net := newClientNet(t)
	startFake(t, net, 0, func(req wire.Request, send func(wire.Reply)) {}) // never replies
	cli := newTestClient(t, net, []wire.NodeID{0})
	start := time.Now()
	_, err := cli.Write([]byte("op"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 400*time.Millisecond {
		t.Fatal("timed out before the deadline")
	}
}

func TestClientIgnoresNotLeaderAndStaleReplies(t *testing.T) {
	net := newClientNet(t)
	startFake(t, net, 1, func(req wire.Request, send func(wire.Reply)) {
		send(wire.Reply{Status: wire.StatusNotLeader})
	})
	startFake(t, net, 0, func(req wire.Request, send func(wire.Reply)) {
		// Send a stale-Seq reply first, then the real one.
		stale := wire.Reply{Client: req.Client, Seq: req.Seq - 1, Status: wire.StatusOK, Result: []byte("stale")}
		_ = stale
		send(wire.Reply{Status: wire.StatusOK, Result: []byte("real")})
	})
	cli := newTestClient(t, net, []wire.NodeID{0, 1})
	res, err := cli.Write([]byte("op"))
	if err != nil || string(res) != "real" {
		t.Fatalf("write = %q, %v", res, err)
	}
}

func TestClientStatusMapping(t *testing.T) {
	net := newClientNet(t)
	var status wire.ReplyStatus
	var errText string
	startFake(t, net, 0, func(req wire.Request, send func(wire.Reply)) {
		send(wire.Reply{Status: status, Err: errText})
	})
	cli := newTestClient(t, net, []wire.NodeID{0})

	status, errText = wire.StatusAborted, "conflict"
	if _, err := cli.Write([]byte("op")); !errors.Is(err, ErrAborted) {
		t.Fatalf("aborted mapped to %v", err)
	}
	status, errText = wire.StatusError, "bad op"
	var se *ServiceError
	if _, err := cli.Write([]byte("op")); !errors.As(err, &se) || se.Msg != "bad op" {
		t.Fatalf("service error mapped to %v", err)
	}
	if got := se.Error(); got != "service: bad op" {
		t.Fatalf("service error reads %q", got)
	}
}

func TestClientSeqMonotonic(t *testing.T) {
	net := newClientNet(t)
	var seqs []uint64
	startFake(t, net, 0, func(req wire.Request, send func(wire.Reply)) {
		seqs = append(seqs, req.Seq)
		send(wire.Reply{Status: wire.StatusOK})
	})
	cli := newTestClient(t, net, []wire.NodeID{0})
	for i := 0; i < 5; i++ {
		if _, err := cli.Write(nil); err != nil {
			t.Fatal(err)
		}
	}
	// A starved round trip may retransmit an operation, and a
	// retransmit legitimately reuses its seq (that is the idempotency
	// contract) — so require non-decreasing order plus one distinct seq
	// per operation, which still catches a client reusing a seq for a
	// new op or handing them out out of order.
	distinct := 0
	for i := range seqs {
		if i == 0 || seqs[i] != seqs[i-1] {
			distinct++
		}
		if i > 0 && seqs[i] < seqs[i-1] {
			t.Fatalf("seqs went backwards: %v", seqs)
		}
	}
	if distinct != 5 {
		t.Fatalf("5 ops produced %d distinct seqs: %v", distinct, seqs)
	}
}

func TestClientTxnFieldsOnWire(t *testing.T) {
	net := newClientNet(t)
	var got []wire.Request
	startFake(t, net, 0, func(req wire.Request, send func(wire.Reply)) {
		got = append(got, req)
		send(wire.Reply{Status: wire.StatusOK})
	})
	cli := newTestClient(t, net, []wire.NodeID{0})
	tx := cli.Begin()
	tx.Do([]byte("a"))
	tx.Do([]byte("b"))
	tx.Commit()
	ops := collapseRetransmits(got)
	if len(ops) != 3 {
		t.Fatalf("saw %d distinct requests: %+v", len(ops), got)
	}
	if ops[0].Kind != wire.KindTxnOp || ops[0].TxnSeq != 0 ||
		ops[1].Kind != wire.KindTxnOp || ops[1].TxnSeq != 1 ||
		ops[2].Kind != wire.KindTxnCommit || ops[2].TxnSeq != 2 {
		t.Fatalf("txn wire fields wrong: %+v", ops)
	}
	if ops[0].Txn == 0 || ops[0].Txn != ops[2].Txn {
		t.Fatalf("txn IDs inconsistent: %+v", ops)
	}
}

// TestClientKindsOnWire: Original, Read and Write each put their own
// request kind on the wire, outside any transaction.
func TestClientKindsOnWire(t *testing.T) {
	net := newClientNet(t)
	var got []wire.Request
	startFake(t, net, 0, func(req wire.Request, send func(wire.Reply)) {
		got = append(got, req)
		send(wire.Reply{Status: wire.StatusOK})
	})
	cli := newTestClient(t, net, []wire.NodeID{0})
	for _, call := range []func([]byte) ([]byte, error){cli.Original, cli.Read, cli.Write} {
		if _, err := call([]byte("op")); err != nil {
			t.Fatal(err)
		}
	}
	ops := collapseRetransmits(got)
	want := []wire.RequestKind{wire.KindOriginal, wire.KindRead, wire.KindWrite}
	if len(ops) != len(want) {
		t.Fatalf("saw %d distinct requests: %+v", len(ops), got)
	}
	for i, op := range ops {
		if op.Kind != want[i] || op.Txn != 0 {
			t.Fatalf("request %d went out as %v (txn %d), want %v", i, op.Kind, op.Txn, want[i])
		}
	}
}

// collapseRetransmits drops adjacent requests sharing a seq: a starved
// round trip may rebroadcast an operation, and the retransmit is
// byte-identical by the idempotency contract. The client is synchronous
// per operation and the fabric link is FIFO, so a retransmit always
// lands adjacent to its original.
func collapseRetransmits(reqs []wire.Request) []wire.Request {
	var out []wire.Request
	for i, r := range reqs {
		if i == 0 || r.Seq != reqs[i-1].Seq {
			out = append(out, r)
		}
	}
	return out
}

func TestClientTxnIDsDistinct(t *testing.T) {
	net := newClientNet(t)
	var got []wire.Request
	startFake(t, net, 0, func(req wire.Request, send func(wire.Reply)) {
		got = append(got, req)
		send(wire.Reply{Status: wire.StatusOK})
	})
	cli := newTestClient(t, net, []wire.NodeID{0})
	t1 := cli.Begin()
	t1.Do(nil)
	t1.Abort()
	t2 := cli.Begin()
	t2.Do(nil)
	t2.Abort()
	ops := collapseRetransmits(got)
	if len(ops) < 3 || ops[0].Txn == ops[2].Txn {
		t.Fatalf("txn IDs reused: %+v", ops)
	}
}

func TestClientDeadTxnRefusesOps(t *testing.T) {
	net := newClientNet(t)
	startFake(t, net, 0, func(req wire.Request, send func(wire.Reply)) {
		send(wire.Reply{Status: wire.StatusAborted})
	})
	cli := newTestClient(t, net, []wire.NodeID{0})
	tx := cli.Begin()
	if _, err := tx.Do(nil); !errors.Is(err, ErrAborted) {
		t.Fatalf("first op = %v", err)
	}
	// Everything after the abort short-circuits locally.
	if _, err := tx.Do(nil); !errors.Is(err, ErrAborted) {
		t.Fatal("dead txn accepted an op")
	}
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatal("dead txn accepted a commit")
	}
	if err := tx.Abort(); err != nil {
		t.Fatal("aborting a dead txn must be a no-op")
	}
}

func TestClientClosed(t *testing.T) {
	net := newClientNet(t)
	cli := newTestClient(t, net, []wire.NodeID{0})
	cli.Close()
	if _, err := cli.Write(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	cli.Close() // idempotent
}

func TestRetryBackoffFullJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := 10 * time.Millisecond
	max := 80 * time.Millisecond
	for attempt := 0; attempt < 10; attempt++ {
		cap := base << attempt
		if cap > max {
			cap = max
		}
		for i := 0; i < 200; i++ {
			d := retryBackoff(rng, base, max, attempt, time.Hour)
			if d <= 0 || d > cap {
				t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, cap)
			}
		}
	}
}

func TestRetryBackoffCappedAtDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	remain := 3 * time.Millisecond
	for i := 0; i < 200; i++ {
		d := retryBackoff(rng, time.Second, 8*time.Second, 5, remain)
		if d <= 0 || d > remain {
			t.Fatalf("backoff %v exceeds remaining deadline %v", d, remain)
		}
	}
}

// Regression: a non-positive backoff window reaching rng.Int63n panicked.
// Zero and negative bases (and the zero window a misconfigured caller can
// produce) must yield a small positive wait instead.
func TestRetryBackoffNonPositiveWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, base := range []time.Duration{0, -time.Second} {
		for attempt := 0; attempt < 4; attempt++ {
			d := retryBackoff(rng, base, 8*base, attempt, time.Hour)
			if d <= 0 {
				t.Fatalf("base %v attempt %d: backoff %v not positive", base, attempt, d)
			}
		}
	}
	// Also via New: non-positive config values fall back to defaults
	// rather than reaching the jitter draw as a zero window.
	net := newClientNet(t)
	ep, err := net.Endpoint(wire.ClientIDBase + 9)
	if err != nil {
		t.Fatal(err)
	}
	cli := New(Config{Transport: ep, Replicas: []wire.NodeID{0}, RetryEvery: -time.Second})
	defer cli.Close()
	if cli.cfg.RetryEvery <= 0 || cli.cfg.RetryMax <= 0 || cli.cfg.Deadline <= 0 {
		t.Fatalf("negative config not defaulted: %+v", cli.cfg)
	}
}

// Regression: a NearPin naming a node outside Replicas stamped every
// first read with a serving replica that does not exist — all replicas
// queue vouches for it, nobody serves, and each read burns a retry
// interval before the unstamped rebroadcast reaches the leader path.
// New must drop such a pin at construction; a valid pin must survive.
func TestClientDropsInvalidNearPin(t *testing.T) {
	net := newClientNet(t)
	var got []wire.Request
	startFake(t, net, 0, func(req wire.Request, send func(wire.Reply)) {
		got = append(got, req)
		send(wire.Reply{Status: wire.StatusOK})
	})
	mk := func(pin wire.NodeID) *Client {
		ep, err := net.Endpoint(wire.ClientIDBase + 2 + pin)
		if err != nil {
			t.Fatal(err)
		}
		cli := New(Config{
			Transport:   ep,
			Replicas:    []wire.NodeID{0},
			RetryEvery:  30 * time.Millisecond,
			Deadline:    500 * time.Millisecond,
			NearRead:    true,
			NearPin:     true,
			NearReplica: pin,
		})
		t.Cleanup(cli.Close)
		return cli
	}

	bad := mk(7) // not a member
	if bad.cfg.NearPin {
		t.Fatal("pin to a non-member survived construction")
	}
	if _, err := bad.Read([]byte("op")); err != nil {
		t.Fatal(err)
	}
	// With the pin dropped the client falls back to the RTT estimator,
	// which may legitimately stamp a member — but never the non-member.
	if len(got) == 0 || (got[0].NearSet && got[0].Near != 0) {
		t.Fatalf("first read stamped Near=%d, not a member: %+v", got[0].Near, got[0])
	}

	got = nil
	good := mk(0)
	if !good.cfg.NearPin {
		t.Fatal("valid pin dropped at construction")
	}
	if _, err := good.Read([]byte("op")); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !got[0].NearSet || got[0].Near != 0 {
		t.Fatalf("valid pin did not stamp the first read: %+v", got)
	}
}

// Regression: clients constructed in the same nanosecond seeded their
// jitter RNGs identically (seed was UnixNano ^ id), so a fleet spawned in
// a tight loop backed off in lockstep. The construction counter mixed
// into jitterSeed must decorrelate them even with identical clock and ID.
func TestJitterSeedsDistinctForSameNanosecond(t *testing.T) {
	const n = 64
	seen := make(map[int64]bool, n)
	streams := make(map[int64]bool, n)
	for i := 0; i < n; i++ {
		s := jitterSeed(wire.ClientIDBase + 1) // same ID every time
		if seen[s] {
			t.Fatalf("duplicate seed %#x after %d constructions", s, i)
		}
		seen[s] = true
		first := rand.New(rand.NewSource(s)).Int63()
		if streams[first] {
			t.Fatalf("two clients drew the same first jitter value %#x", first)
		}
		streams[first] = true
	}
}
