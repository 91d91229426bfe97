package chaos_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
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

// TestPipelinedLeaderCrashMidFlight kills the leader of a WAL-backed TCP
// cluster while its depth-4 speculative pipeline demonstrably holds
// multiple waves in flight. The crash is honest — staged in-RAM records
// are discarded, the WAL replays only what fsync put on disk — so the
// recovering cluster sees exactly the scenario the pipelining design
// must survive: a committed prefix plus an uncommitted speculative
// suffix, possibly with gaps. Every acknowledged write must survive, the
// suffix past any gap must be discarded rather than grafted onto the
// wrong state, and all replicas must converge.
func TestPipelinedLeaderCrashMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline chaos test skipped in -short mode")
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

	var mu sync.Mutex
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
				PipelineDepth:     4,
			},
		})
		if err != nil {
			t.Fatalf("replica %d: %v", id, err)
		}
		r.Start()
		mu.Lock()
		reps[id] = r
		mu.Unlock()
	}
	for _, id := range peers {
		st, err := storage.OpenFile(walPath(id))
		if err != nil {
			t.Fatal(err)
		}
		start(id, trs[id], st)
	}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range reps {
			r.Stop()
		}
	}()

	replica := func(id wire.NodeID) *core.Replica {
		mu.Lock()
		defer mu.Unlock()
		return reps[id]
	}
	leaderOf := func() (wire.NodeID, bool) {
		for _, id := range peers {
			r := replica(id)
			var lead bool
			if r.Inspect(func(rr *core.Replica) { lead = rr.IsActiveLeader() }) && lead {
				return id, true
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

	// Concurrent writers: enough parallel load that the leader's pipeline
	// holds several waves at once (each wave waits on a quorum fsync, so
	// waves are milliseconds long even on loopback TCP).
	const writers, each = 8, 40
	acked := make(map[string][]byte)
	var ackMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		ctr := transport.DialTCPOpts(wire.ClientIDBase+1+wire.NodeID(w), realBook, topts)
		cli := client.New(client.Config{
			Transport:  ctr,
			Replicas:   peers,
			RetryEvery: 50 * time.Millisecond,
			Deadline:   20 * time.Second,
		})
		wg.Add(1)
		go func(w int, cli *client.Client) {
			defer wg.Done()
			defer cli.Close()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("w%d-k%03d", w, i)
				val := []byte(fmt.Sprintf("v%d-%03d", w, i))
				if _, err := cli.Write(service.KVPut(key, val)); err != nil {
					t.Errorf("writer %d op %d: %v", w, i, err)
					return
				}
				ackMu.Lock()
				acked[key] = val
				ackMu.Unlock()
			}
		}(w, cli)
	}

	// Wait until the leader demonstrably has 2+ waves in flight (the
	// registry is safe from any goroutine), then kill it mid-pipeline.
	var victim wire.NodeID
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("pipeline never held 2+ waves in flight")
		}
		lead, ok := leaderOf()
		if ok && replica(lead).Metrics().Value("gridrep_waves_in_flight") >= 2 {
			victim = lead
			break
		}
		time.Sleep(time.Millisecond)
	}
	vm := replica(victim).Metrics()
	t.Logf("killing leader %d with %d waves in flight (max %d, started %d, committed %d)",
		victim, vm.Value("gridrep_waves_in_flight"), vm.Value("gridrep_waves_in_flight_max"),
		vm.Value("gridrep_waves_started_total"), vm.Value("gridrep_waves_committed_total"))

	// Honest crash: Stop discards staged in-RAM records; the reopened WAL
	// replays only what fsync put on disk.
	replica(victim).Stop()
	fresh, err := storage.OpenFile(walPath(victim))
	if err != nil {
		t.Fatalf("reopen WAL %d: %v", victim, err)
	}
	loaded, err := fresh.Load()
	if err != nil {
		t.Fatalf("load WAL %d: %v", victim, err)
	}
	t.Logf("replica %d restart: chosen=%d accepted=%d", victim, loaded.Chosen, loaded.Accepted.Len())
	var tr *transport.TCP
	rebind := time.Now().Add(5 * time.Second)
	for {
		tr, err = transport.ListenTCPOpts(victim, map[wire.NodeID]string{victim: realBook[victim]}, topts)
		if err == nil {
			break
		}
		if time.Now().After(rebind) {
			t.Fatalf("rebind %d on %s: %v", victim, realBook[victim], err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	trs[victim] = tr
	start(victim, tr, fresh)

	wg.Wait()
	newLead := waitLeader()
	t.Logf("recovered: leader %d, recovery_discarded=%d",
		newLead, replica(newLead).Metrics().Value("gridrep_recovery_discarded_total"))

	// Zero lost acknowledged writes: the committed prefix survived the
	// crash and the discarded speculative suffix took no ack with it.
	vtr := transport.DialTCPOpts(wire.ClientIDBase+100, realBook, topts)
	vcli := client.New(client.Config{
		Transport:  vtr,
		Replicas:   peers,
		RetryEvery: 50 * time.Millisecond,
		Deadline:   20 * time.Second,
	})
	defer vcli.Close()
	ackMu.Lock()
	defer ackMu.Unlock()
	t.Logf("verifying %d acked writes", len(acked))
	for key, want := range acked {
		res, err := vcli.Read(service.KVGet(key))
		if err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		got, found := service.KVReply(res)
		if !found || !bytes.Equal(got, want) {
			t.Fatalf("key %s: found=%v got=%q want=%q — acknowledged write lost", key, found, got, want)
		}
	}

	// And the replicas converge to one log: chosen == applied everywhere.
	conv := time.Now().Add(10 * time.Second)
	for {
		var chosen, applied []uint64
		for _, id := range peers {
			replica(id).Inspect(func(r *core.Replica) {
				chosen = append(chosen, r.Chosen())
				applied = append(applied, r.Applied())
			})
		}
		same := len(chosen) == len(peers)
		for i := range chosen {
			if chosen[i] != chosen[0] || applied[i] != chosen[i] {
				same = false
			}
		}
		if same {
			break
		}
		if time.Now().After(conv) {
			t.Fatalf("replicas did not converge: chosen=%v applied=%v", chosen, applied)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
