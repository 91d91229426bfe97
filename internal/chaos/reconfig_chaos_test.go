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
	"gridrep/internal/metrics"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// TestReconfigJoinUnderLinkChaos is the PR 6 acceptance scenario over
// real TCP with socket-level chaos: a 3-replica WAL-backed cluster
// takes a write load while a background injector severs random links;
// mid-load one backup is killed outright and its disk destroyed; the
// survivors keep committing and prune their WALs; a brand-new replica
// then joins online (the -join path), installs a streamed snapshot —
// a full log replay is impossible past the pruned prefix — is promoted
// to voter by a committed configuration entry, and finally the dead
// member is removed by a second config entry. Zero acknowledged writes
// may be lost, and the measured catch-up time is reported.
func TestReconfigJoinUnderLinkChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("reconfig chaos test skipped in -short mode")
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

	trs := make(map[wire.NodeID]*transport.TCP, 4)
	realBook := make(map[wire.NodeID]string, 4)
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

	reps := make(map[wire.NodeID]*core.Replica, 4)
	start := func(id wire.NodeID, tr *transport.TCP, st storage.Store, join bool, known []wire.NodeID) {
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
			Peers:     known,
			Service:   service.KVFactory,
			Store:     st,
			Transport: tr,
			Options: core.Options{
				HeartbeatInterval: 10 * time.Millisecond,
				ElectionTimeout:   300 * time.Millisecond,
				RetryTimeout:      40 * time.Millisecond,
				SnapshotEvery:     16,
				PruneKeep:         4,
			},
			Join:          join,
			AdvertiseAddr: realBook[id],
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
		start(id, trs[id], st, false, peers)
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

	ctr := transport.DialTCPOpts(wire.ClientIDBase+1, realBook, topts)
	cli := client.New(client.Config{
		Transport:  ctr,
		Replicas:   peers,
		RetryEvery: 50 * time.Millisecond,
		Deadline:   30 * time.Second,
	})
	defer cli.Close()

	stopSevering := severEvery(grid, 25*time.Millisecond)

	acked := make(map[string][]byte, 300)
	put := func(i int) {
		t.Helper()
		key := fmt.Sprintf("k%03d", i)
		val := []byte(fmt.Sprintf("v%03d", i))
		if _, err := cli.Write(service.KVPut(key, val)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		acked[key] = val
	}
	for i := 0; i < 120; i++ {
		put(i)
	}

	// Kill a backup and destroy its disk mid-load.
	lead, _ := leaderOf()
	var victim wire.NodeID
	for _, id := range peers {
		if id != lead {
			victim = id
			break
		}
	}
	reps[victim].Stop()
	delete(reps, victim)
	t.Logf("killed backup %d (disk destroyed), load continues under link chaos", victim)

	for i := 120; i < 260; i++ {
		put(i)
	}

	// Survivors prune up to the dead node's last gossiped watermark.
	waitPrune := time.Now().Add(20 * time.Second)
	for {
		l, ok := leaderOf()
		if ok && reps[l].Health().PrunedIndex > 0 {
			t.Logf("leader %d pruned through %d", l, reps[l].Health().PrunedIndex)
			break
		}
		if time.Now().After(waitPrune) {
			t.Fatal("survivors never pruned their WALs")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A brand-new replica joins online through the chaos grid.
	joiner := wire.NodeID(3)
	jtr, err := transport.ListenTCPOpts(joiner, map[wire.NodeID]string{joiner: "127.0.0.1:0"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	trs[joiner] = jtr
	realBook[joiner] = jtr.Addr()
	grid.SetReal(joiner, jtr.Addr())
	jst, err := storage.OpenFile(walPath(joiner))
	if err != nil {
		t.Fatal(err)
	}
	startJoin := time.Now()
	start(joiner, jtr, jst, true, []wire.NodeID{0, 1, 2, 3})

	waitVoter := time.Now().Add(30 * time.Second)
	for {
		l, ok := leaderOf()
		if ok {
			voter := false
			for _, m := range reps[l].Health().Members {
				if m == joiner {
					voter = true
				}
			}
			if voter {
				break
			}
		}
		if time.Now().After(waitVoter) {
			t.Fatalf("joiner never promoted under chaos")
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("join to voter promotion under link chaos took %v", time.Since(startJoin))

	if m, ok := metrics.Find(reps[joiner].Metrics().Snapshot(), "gridrep_catchup_installs_total"); !ok || m.Value < 1 {
		t.Fatalf("joiner snapshot installs = %v; want >=1 (must catch up via snapshot, not replay)", m.Value)
	}

	// Remove the dead member by a second configuration entry; pruning
	// is then no longer capped by its stale watermark.
	l, _ := leaderOf()
	if err := reps[l].Reconfigure(wire.ConfigRemove, victim, ""); err != nil {
		t.Fatalf("remove dead member: %v", err)
	}
	waitRemove := time.Now().Add(15 * time.Second)
	for {
		l, ok := leaderOf()
		if ok && len(reps[l].Health().Members) == 3 {
			break
		}
		if time.Now().After(waitRemove) {
			t.Fatal("dead member never removed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	severs := stopSevering()
	for _, link := range grid.Links() {
		grid.Restore(link[0], link[1])
		grid.SetDown(link[0], link[1], false)
	}
	t.Logf("chaos: %d severs; grid %+v", severs, grid.Stats())

	// Zero lost acked writes, read through the post-change membership.
	vtr := transport.DialTCPOpts(wire.ClientIDBase+2, realBook, topts)
	vcli := client.New(client.Config{
		Transport:  vtr,
		Replicas:   []wire.NodeID{0, 1, 2, 3},
		RetryEvery: 50 * time.Millisecond,
		Deadline:   30 * time.Second,
	})
	defer vcli.Close()
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
	if _, err := vcli.Write(service.KVPut("post-reconfig", []byte("ok"))); err != nil {
		t.Fatalf("write after reconfiguration: %v", err)
	}
}
