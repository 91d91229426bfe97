package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gridrep/internal/core"
	"gridrep/internal/metrics"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

// counter reads one metric from a replica's registry.
func counter(t *testing.T, rep *core.Replica, name string) int64 {
	t.Helper()
	m, ok := metrics.Find(rep.Metrics().Snapshot(), name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return m.Value
}

// waitPruned blocks until the leader has pruned its WAL above zero, which
// requires every member's applied watermark to have gossiped around.
func waitPruned(t *testing.T, c *Cluster, timeout time.Duration) uint64 {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if leader, ok := c.Leader(); ok {
			if rep, ok := c.Replica(leader); ok {
				if h := rep.Health(); h.PrunedIndex > 0 {
					return h.PrunedIndex
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("WAL never pruned: watermark gossip or prune driver broken")
	return 0
}

// TestOnlineJoinSnapshotCatchUp is the reconfiguration happy path
// (DESIGN.md §12): a cluster under load snapshots and prunes its WAL,
// then a brand-new replica joins online — it must catch up through a
// streamed snapshot (the pruned prefix cannot be replayed), be promoted
// to voter by a committed configuration entry, and serve as a full
// member afterwards. No acked write may be lost along the way.
func TestOnlineJoinSnapshotCatchUp(t *testing.T) {
	c := newTestCluster(t, Config{
		Service: service.KVFactory,
		Options: core.Options{
			SnapshotEvery: 32,
			PruneKeep:     8,
		},
	})
	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const n = 200
	for i := 0; i < n; i++ {
		if _, err := cli.Write(service.KVPut(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%03d", i)))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	pruned := waitPruned(t, c, 10*time.Second)
	t.Logf("leader pruned WAL through instance %d", pruned)

	joiner := wire.NodeID(3)
	start := time.Now()
	if err := c.AddReplica(joiner); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForVoter(joiner, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Logf("join to voter promotion took %v", time.Since(start))

	rep, ok := c.Replica(joiner)
	if !ok {
		t.Fatal("joiner not running")
	}
	if got := counter(t, rep, "gridrep_catchup_installs_total"); got < 1 {
		t.Fatalf("joiner installed %d snapshots; want >=1 (caught up by replay despite pruned WAL?)", got)
	}
	if got := counter(t, rep, "gridrep_catchup_chunks_received_total"); got < 1 {
		t.Fatalf("joiner received %d snapshot chunks; want >=1", got)
	}

	// The committed membership must list the joiner on the leader.
	leader, _ := c.Leader()
	lrep, _ := c.Replica(leader)
	h := lrep.Health()
	found := false
	for _, m := range h.Members {
		if m == joiner {
			found = true
		}
	}
	if !found {
		t.Fatalf("leader membership %v does not list promoted joiner", h.Members)
	}

	// Every acked write survives, and the grown cluster keeps serving.
	for i := 0; i < n; i += 17 {
		res, err := cli.Read(service.KVGet(fmt.Sprintf("k%03d", i)))
		if err != nil {
			t.Fatalf("read k%03d: %v", i, err)
		}
		if v, ok := service.KVReply(res); !ok || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("k%03d = %q after join", i, v)
		}
	}
	if _, err := cli.Write(service.KVPut("post-join", []byte("ok"))); err != nil {
		t.Fatalf("write after join: %v", err)
	}
}

// TestReconfigHealedBackupAppliesConfigEntries isolates a backup on the
// network — not Crash/Restart, whose re-seeded peer list would hide a
// skipped entry — while a membership change commits, heals it, and
// requires the healed backup to hold the membership the leader holds:
// the configuration entry reached it through catch-up and must have been
// applied, not jumped over. Once with an added voter, once with a removed
// one.
func TestReconfigHealedBackupAppliesConfigEntries(t *testing.T) {
	for _, remove := range []bool{false, true} {
		t.Run(fmt.Sprintf("remove=%v", remove), func(t *testing.T) {
			c := newTestCluster(t, Config{N: 4, Service: service.KVFactory})
			leader, err := c.WaitForLeader(5 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			cli, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			put := func(k string) {
				t.Helper()
				if _, err := cli.Write(service.KVPut(k, []byte(k))); err != nil {
					t.Fatalf("write %s: %v", k, err)
				}
			}
			for i := 0; i < 5; i++ {
				put(fmt.Sprintf("pre%d", i))
			}
			var backups []wire.NodeID
			for _, id := range c.Running() {
				if id != leader {
					backups = append(backups, id)
				}
			}
			isolated, changed := backups[0], backups[1]
			c.Net.Model().SetDown(isolated, true)

			lrep, _ := c.Replica(leader)
			if remove {
				if err := c.RemoveReplica(changed); err != nil {
					t.Fatal(err)
				}
				deadline := time.Now().Add(10 * time.Second)
				for len(lrep.Health().Members) != 3 {
					if time.Now().After(deadline) {
						t.Fatalf("removal never committed; members = %v", lrep.Health().Members)
					}
					time.Sleep(2 * time.Millisecond)
				}
			} else {
				changed = wire.NodeID(4)
				if err := c.AddReplica(changed); err != nil {
					t.Fatal(err)
				}
				if err := c.WaitForVoter(changed, 20*time.Second); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 5; i++ {
				put(fmt.Sprintf("post%d", i))
			}
			c.Net.Model().SetDown(isolated, false)

			irep, _ := c.Replica(isolated)
			want := lrep.Health()
			deadline := time.Now().Add(10 * time.Second)
			for irep.Health().Applied < want.Applied {
				if time.Now().After(deadline) {
					t.Fatalf("healed backup stuck at applied=%d, want %d", irep.Health().Applied, want.Applied)
				}
				time.Sleep(2 * time.Millisecond)
			}
			var voters []wire.NodeID
			irep.Inspect(func(r *core.Replica) { voters = r.Voters() })
			listed := false
			for _, v := range voters {
				listed = listed || v == changed
			}
			if listed == remove {
				t.Fatalf("healed backup voters = %v after the change to %v: configuration entry skipped", voters, changed)
			}
			if got := fmt.Sprint(irep.Health().Members); got != fmt.Sprint(want.Members) {
				t.Fatalf("healed backup members = %s, leader has %v", got, want.Members)
			}
		})
	}
}

// TestRemoveReplicaShrinksQuorum removes a backup through the consensus
// path and checks the survivors keep serving with the smaller quorum.
func TestRemoveReplicaShrinksQuorum(t *testing.T) {
	c := newTestCluster(t, Config{Service: service.KVFactory})
	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(service.KVPut("pre", []byte("1"))); err != nil {
		t.Fatal(err)
	}

	leader, _ := c.Leader()
	var victim wire.NodeID
	for _, id := range c.Running() {
		if id != leader {
			victim = id
			break
		}
	}
	if err := c.RemoveReplica(victim); err != nil {
		t.Fatalf("remove %v: %v", victim, err)
	}
	lrep, _ := c.Replica(leader)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var voters []wire.NodeID
		lrep.Inspect(func(r *core.Replica) { voters = r.Voters() })
		if len(voters) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("removal never committed; voters = %v", voters)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The shrunk cluster serves with the removed node ignored entirely.
	c.Crash(victim)
	if _, err := cli.Write(service.KVPut("post-remove", []byte("2"))); err != nil {
		t.Fatalf("write after removal: %v", err)
	}
}

// TestReconfigureRefusesUnsafeChanges exercises the leader's guard
// rails: promoting an unknown learner, removing yourself, and proposing
// through a non-leader must all fail fast with typed errors.
func TestReconfigureRefusesUnsafeChanges(t *testing.T) {
	c := newTestCluster(t, Config{Service: service.KVFactory})
	leader, err := c.WaitForLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	lrep, _ := c.Replica(leader)

	if err := lrep.Reconfigure(wire.ConfigAddVoter, 9, ""); !errors.Is(err, core.ErrUnsafeChange) {
		t.Fatalf("promoting unknown learner: err = %v, want ErrUnsafeChange", err)
	}
	if err := lrep.Reconfigure(wire.ConfigRemove, leader, ""); !errors.Is(err, core.ErrUnsafeChange) {
		t.Fatalf("self-removal: err = %v, want ErrUnsafeChange", err)
	}
	for _, id := range c.Running() {
		if id == leader {
			continue
		}
		rep, _ := c.Replica(id)
		if err := rep.Reconfigure(wire.ConfigRemove, leader, ""); !errors.Is(err, core.ErrNotLeader) {
			t.Fatalf("proposal via backup: err = %v, want ErrNotLeader", err)
		}
		break
	}
}

// TestChaosCrashRejoinViaSnapshot is the crash-restart chaos scenario
// with snapshots and pruning in play: a WAL-backed replica dies losing
// its disk mid-load, the survivors keep committing and prune their logs,
// and the replacement (same ID, empty WAL) must come back through a
// streamed snapshot — not a full log replay, which is impossible — with
// zero acked writes lost. The catch-up time is measured and logged.
func TestChaosCrashRejoinViaSnapshot(t *testing.T) {
	dataDir := t.TempDir()
	c := newTestCluster(t, Config{
		Service:    service.KVFactory,
		DataDir:    dataDir,
		SyncPolicy: storage.SyncPolicyBatch,
		Options: core.Options{
			SnapshotEvery: 16,
			PruneKeep:     4,
		},
	})
	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	put := func(i int) {
		if _, err := cli.Write(service.KVPut(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%03d", i)))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < 120; i++ {
		put(i)
	}

	// Kill a backup and destroy its disk: the replacement has nothing.
	leader, _ := c.Leader()
	var victim wire.NodeID
	for _, id := range c.Running() {
		if id != leader {
			victim = id
			break
		}
	}
	c.Crash(victim)
	walPath := filepath.Join(dataDir, fmt.Sprintf("replica-%d.wal", victim))
	if err := os.Remove(walPath); err != nil {
		t.Fatal(err)
	}

	// Load continues on the surviving quorum; the survivors prune their
	// WALs up to the dead node's last gossiped watermark.
	for i := 120; i < 260; i++ {
		put(i)
	}
	pruned := waitPruned(t, c, 10*time.Second)
	t.Logf("survivors pruned WAL through instance %d while %v was down", pruned, victim)

	// Replacement: same ID, fresh empty WAL. Its HaveChosen=0 sits below
	// the peers' pruned prefix, so catch-up must go through a snapshot.
	fresh, err := storage.OpenFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	c.SetStore(victim, fresh)
	start := time.Now()
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}

	rep, _ := c.Replica(victim)
	var target uint64
	lrep, _ := c.Replica(leader)
	target = lrep.Health().CommitIndex
	deadline := time.Now().Add(20 * time.Second)
	for rep.Health().Applied < target {
		if time.Now().After(deadline) {
			t.Fatalf("replacement stuck at applied=%d, want >= %d", rep.Health().Applied, target)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("replacement caught up to instance %d in %v", target, time.Since(start))

	if got := counter(t, rep, "gridrep_catchup_installs_total"); got < 1 {
		t.Fatalf("replacement installed %d snapshots; want >=1 (full replay should be impossible past the pruned prefix)", got)
	}
	if h := rep.Health(); h.SnapshotIndex == 0 {
		t.Fatal("replacement reports no snapshot index after snapshot install")
	}

	// Zero lost acked writes, including those committed while down.
	for i := 0; i < 260; i += 13 {
		res, err := cli.Read(service.KVGet(fmt.Sprintf("k%03d", i)))
		if err != nil {
			t.Fatalf("read k%03d: %v", i, err)
		}
		if v, ok := service.KVReply(res); !ok || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("k%03d = %q (acked write lost)", i, v)
		}
	}
}
