package chaos_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"gridrep/internal/chaos"
	"gridrep/internal/client"
	"gridrep/internal/core"
	"gridrep/internal/service"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// severEvery cuts the live connections of one seeded-random replica link
// every d, until the returned stop is called; stop reports how many links
// it cut.
func severEvery(grid *chaos.Grid, d time.Duration) (stop func() int) {
	quit, cut := make(chan struct{}), make(chan int)
	go func() {
		rng, n := rand.New(rand.NewSource(1)), 0
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				cut <- n
				return
			case <-tick.C:
				if links := grid.Links(); len(links) > 0 {
					l := links[rng.Intn(len(links))]
					grid.Sever(l[0], l[1])
					n++
				}
			}
		}
	}()
	return func() int { close(quit); return <-cut }
}

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()
	return ln
}

func roundTrip(t *testing.T, conn net.Conn, r *bufio.Reader, line string) error {
	t.Helper()
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		return err
	}
	got, err := r.ReadString('\n')
	if err != nil {
		return err
	}
	if got != line+"\n" {
		t.Fatalf("echo mismatch: sent %q, got %q", line, got)
	}
	return nil
}

func TestProxyForwardAndSever(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	p, err := chaos.NewProxy("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	r := bufio.NewReader(conn)
	if err := roundTrip(t, conn, r, "hello"); err != nil {
		t.Fatalf("round trip: %v", err)
	}

	p.Sever()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("read after sever should fail")
	}
	conn.Close()

	// The proxy still accepts: a reconnect goes straight through.
	conn2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("redial proxy: %v", err)
	}
	defer conn2.Close()
	if err := roundTrip(t, conn2, bufio.NewReader(conn2), "again"); err != nil {
		t.Fatalf("round trip after sever: %v", err)
	}

	st := p.Stats()
	if st.Accepted < 2 || st.Severs != 1 || st.Bytes == 0 {
		t.Errorf("stats = %+v, want >=2 accepts, 1 sever, >0 bytes", st)
	}
}

func TestProxyBlackholeAndRestore(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	p, err := chaos.NewProxy("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	if err := roundTrip(t, conn, r, "before"); err != nil {
		t.Fatalf("round trip: %v", err)
	}

	p.SetBlackhole(true)
	// The write succeeds locally — that is the whole point of a
	// blackhole — but nothing comes back.
	if _, err := fmt.Fprintf(conn, "lost\n"); err != nil {
		t.Fatalf("write into blackhole should succeed locally: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("blackholed link must not echo")
	}
	conn.SetReadDeadline(time.Time{})

	p.Restore()
	if err := roundTrip(t, conn, r, "after"); err != nil {
		t.Fatalf("round trip after restore: %v", err)
	}
}

func TestProxyDownAndRebind(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	p, err := chaos.NewProxy("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()
	addr := p.Addr()

	if err := p.SetDown(true); err != nil {
		t.Fatalf("down: %v", err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("dial to a downed link should be refused")
	}
	if err := p.SetDown(false); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial after rebind: %v", err)
	}
	defer conn.Close()
	if err := roundTrip(t, conn, bufio.NewReader(conn), "back"); err != nil {
		t.Fatalf("round trip after rebind: %v", err)
	}
}

func TestProxyDelay(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	p, err := chaos.NewProxy("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()
	p.SetDelay(30 * time.Millisecond)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	defer conn.Close()
	start := time.Now()
	if err := roundTrip(t, conn, bufio.NewReader(conn), "slow"); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	// 30ms each way; allow generous scheduling slack below the sum.
	if rtt := time.Since(start); rtt < 40*time.Millisecond {
		t.Errorf("delayed RTT = %v, want >= 40ms", rtt)
	}
}

// TestClusterSurvivesLinkChaos is the acceptance scenario from the
// issue: a 3-replica TCP cluster whose inter-replica links all run
// through chaos proxies completes a 500-op client workload while a
// background injector repeatedly severs random links and, mid-run, the
// current leader is blackholed (sockets up, bytes swallowed). Every
// acknowledged write must be readable afterwards, and the transport
// counters must show the self-healing machinery actually fired.
func TestClusterSurvivesLinkChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos cluster test skipped in -short mode")
	}
	peers := []wire.NodeID{0, 1, 2}
	topts := transport.Options{
		// Small queue: a partitioned peer's backlog must overflow
		// (drop-oldest) rather than grow without bound.
		QueueLen:     32,
		BackoffMin:   5 * time.Millisecond,
		BackoffMax:   100 * time.Millisecond,
		WriteTimeout: 2 * time.Second,
		PingEvery:    20 * time.Millisecond,
		PingTimeout:  100 * time.Millisecond,
	}

	// Each replica binds its real listener first...
	trs := make(map[wire.NodeID]*transport.TCP, len(peers))
	realBook := make(map[wire.NodeID]string, len(peers))
	for _, id := range peers {
		tr, err := transport.ListenTCPOpts(id, map[wire.NodeID]string{id: "127.0.0.1:0"}, topts)
		if err != nil {
			t.Fatalf("listen %d: %v", id, err)
		}
		trs[id] = tr
		realBook[id] = tr.Addr()
	}
	// ...then learns its peers through dedicated link proxies.
	grid := chaos.NewGrid(realBook)
	defer grid.Close()
	for _, id := range peers {
		book, err := grid.BookFor(id)
		if err != nil {
			t.Fatalf("book for %d: %v", id, err)
		}
		for pid, addr := range book {
			if pid != id {
				trs[id].SetAddr(pid, addr)
			}
		}
	}

	reps := make([]*core.Replica, 0, len(peers))
	for _, id := range peers {
		r, err := core.New(core.Config{
			ID:        id,
			Peers:     peers,
			Service:   service.KVFactory,
			Transport: trs[id],
			// Ping timeout (100ms) beats the election timeout, so the
			// blackholed leader is deposed by the transport's PeerDown
			// signal, not by Ω's slow silence detector.
			Options: core.Options{
				HeartbeatInterval: 10 * time.Millisecond,
				ElectionTimeout:   300 * time.Millisecond,
				RetryTimeout:      40 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatalf("replica %d: %v", id, err)
		}
		r.Start()
		reps = append(reps, r)
	}
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
	}()

	leaderOf := func() (wire.NodeID, bool) {
		for _, r := range reps {
			var lead bool
			if r.Inspect(func(rr *core.Replica) { lead = rr.IsActiveLeader() }) && lead {
				return r.ID(), true
			}
		}
		return 0, false
	}
	waitLeader := func() wire.NodeID {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if id, ok := leaderOf(); ok {
				return id
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatal("no leader elected")
		return 0
	}
	waitLeader()

	// The client dials the replicas' real addresses: chaos is injected
	// only between replicas, so an isolated leader can still hear the
	// client — it just cannot assemble a quorum to acknowledge anything.
	ctr := transport.DialTCPOpts(wire.ClientIDBase+1, realBook, topts)
	cli := client.New(client.Config{
		Transport:  ctr,
		Replicas:   peers,
		RetryEvery: 50 * time.Millisecond,
		Deadline:   20 * time.Second,
	})
	defer cli.Close()

	stopSevering := severEvery(grid, 20*time.Millisecond)

	const ops = 500
	acked := make(map[string][]byte, ops)
	for i := 0; i < ops; i++ {
		if i == ops/3 {
			// Blackhole the current leader's links: its sockets stay
			// up and its writes keep succeeding, but no bytes move.
			// Only the transport heartbeat can expose this.
			if lead, ok := leaderOf(); ok {
				grid.Isolate(lead, true)
				time.AfterFunc(600*time.Millisecond, func() { grid.Isolate(lead, false) })
			}
		}
		if i == 2*ops/3 {
			// Partition the current leader outright: dials are refused,
			// so peer supervisors back off while their bounded queues
			// overflow — the drop-counting path under real sockets.
			if lead, ok := leaderOf(); ok {
				grid.Partition(lead, true)
				time.AfterFunc(600*time.Millisecond, func() { grid.Partition(lead, false) })
			}
		}
		key := fmt.Sprintf("k%03d", i)
		val := []byte(fmt.Sprintf("v%03d", i))
		if _, err := cli.Write(service.KVPut(key, val)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		acked[key] = val
	}
	severs := stopSevering()
	for _, link := range grid.Links() {
		grid.Restore(link[0], link[1])
		grid.SetDown(link[0], link[1], false)
	}
	t.Logf("chaos: %d severs; grid %+v", severs, grid.Stats())

	// Zero lost acknowledged writes: every acked key must read back.
	for key, want := range acked {
		res, err := cli.Read(service.KVGet(key))
		if err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		got, found := service.KVReply(res)
		if !found || !bytes.Equal(got, want) {
			t.Fatalf("key %s: found=%v got=%q want=%q — acknowledged write lost", key, found, got, want)
		}
	}

	var reconnects, drops int64
	for i, r := range reps {
		v := func(name string) int64 { return r.Metrics().Value("gridrep_tcp_" + name) }
		var d int64
		for _, cause := range []string{"queue_full", "no_route", "write_fail", "recv_overflow", "reply_overflow"} {
			d += v("drop_" + cause + "_total")
		}
		reconnects += v("reconnects_total")
		drops += d
		t.Logf("replica %d transport: dials=%d reconnects=%d drops=%d",
			peers[i], v("dials_total"), v("reconnects_total"), d)
	}
	if reconnects == 0 {
		t.Error("no reconnects recorded despite repeated link severing")
	}
	if severs > 0 && drops == 0 {
		t.Error("no drops recorded under chaos; expected at least one counted cause")
	}
}
