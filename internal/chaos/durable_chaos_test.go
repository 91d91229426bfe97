package chaos_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"gridrep/internal/chaos"
	"gridrep/internal/client"
	"gridrep/internal/core"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// TestDurableClusterSurvivesCrashUnderChaos is the crash-during-load
// scenario: a 3-replica TCP cluster with WAL-backed stores (Sync on,
// group commit batched) takes a client workload while a background
// injector severs random links, and mid-burst first the leader and later
// a backup are killed outright — staged in-RAM records discarded, state
// replayed from whatever fsync actually put on disk — and rejoin on the
// same address. Zero acknowledged writes may be lost.
func TestDurableClusterSurvivesCrashUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("durable chaos test skipped in -short mode")
	}
	dataDir := t.TempDir()
	peers := []wire.NodeID{0, 1, 2}
	topts := transport.Options{
		QueueLen:     32,
		BackoffMin:   5 * time.Millisecond,
		BackoffMax:   100 * time.Millisecond,
		WriteTimeout: 2 * time.Second,
		PingEvery:    20 * time.Millisecond,
		PingTimeout:  100 * time.Millisecond,
	}
	walPath := func(id wire.NodeID) string {
		return filepath.Join(dataDir, fmt.Sprintf("replica-%d.wal", id))
	}

	// Real listeners first, then the chaos proxies between them.
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
	grid := chaos.NewGrid(realBook)
	defer grid.Close()

	reps := make(map[wire.NodeID]*core.Replica, len(peers))
	start := func(id wire.NodeID, tr *transport.TCP, st storage.Store) {
		t.Helper()
		book, err := grid.BookFor(id)
		if err != nil {
			t.Fatalf("book for %d: %v", id, err)
		}
		for pid, addr := range book {
			if pid != id {
				tr.SetAddr(pid, addr)
			}
		}
		r, err := core.New(core.Config{
			ID:        id,
			Peers:     peers,
			Service:   service.NewKV(),
			Store:     st,
			Transport: tr,
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
		reps[id] = r
	}
	for _, id := range peers {
		st, err := storage.OpenFile(walPath(id))
		if err != nil {
			t.Fatal(err)
		}
		start(id, trs[id], st)
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
		t.Helper()
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

	// crashAndRestart kills a replica the honest way: Stop discards its
	// staged (never-flushed) in-RAM records and closes its listener; the
	// restart replays only what fsync put on disk and rebinds the same
	// port so the grid proxies and peers find it again.
	crashAndRestart := func(id wire.NodeID, mustHaveState bool) {
		t.Helper()
		reps[id].Stop()
		fresh, err := storage.OpenFile(walPath(id))
		if err != nil {
			t.Fatalf("reopen WAL %d: %v", id, err)
		}
		st, err := fresh.Load()
		if err != nil {
			t.Fatalf("load WAL %d: %v", id, err)
		}
		t.Logf("replica %d restart: chosen=%d accepted=%d", id, st.Chosen, st.Accepted.Len())
		if mustHaveState && st.Accepted.Len() == 0 {
			t.Fatalf("replica %d WAL empty after %d acked writes: durability pipeline never flushed", id, st.Chosen)
		}
		var tr *transport.TCP
		deadline := time.Now().Add(5 * time.Second)
		for {
			tr, err = transport.ListenTCPOpts(id, map[wire.NodeID]string{id: realBook[id]}, topts)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("rebind %d on %s: %v", id, realBook[id], err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		trs[id] = tr
		start(id, tr, fresh)
	}

	// The client dials the replicas' real addresses; chaos and crashes
	// live between and inside the replicas.
	ctr := transport.DialTCPOpts(wire.ClientIDBase+1, realBook, topts)
	cli := client.New(client.Config{
		Transport:  ctr,
		Replicas:   peers,
		RetryEvery: 50 * time.Millisecond,
		Deadline:   20 * time.Second,
	})
	defer cli.Close()

	stopSevering := severEvery(grid, 25*time.Millisecond)

	const ops = 300
	acked := make(map[string][]byte, ops)
	for i := 0; i < ops; i++ {
		if i == ops/3 {
			// Kill the leader mid-burst. After 100 acked writes its WAL
			// must hold flushed state — every ack waited on a quorum
			// fsync that includes the leader's own.
			if lead, ok := leaderOf(); ok {
				crashAndRestart(lead, true)
			}
		}
		if i == 2*ops/3 {
			// Kill a backup mid-burst. It may have missed some quorums,
			// so only log its recovered state.
			lead, _ := leaderOf()
			for _, id := range peers {
				if id != lead {
					crashAndRestart(id, false)
					break
				}
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

	// Zero lost acknowledged writes across both crashes.
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
}
