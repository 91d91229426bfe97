package gridrep_test

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gridrep"
	"gridrep/internal/storage"
)

// reservePorts grabs n loopback ports so every replica can start with a
// full address book.
func reservePorts(t *testing.T, ids []gridrep.NodeID) map[gridrep.NodeID]string {
	t.Helper()
	peers := make(map[gridrep.NodeID]string, len(ids))
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[id] = ln.Addr().String()
		ln.Close()
	}
	return peers
}

// tcpLeader polls the servers for the one that reports itself as the
// activated leader.
func tcpLeader(t *testing.T, srvs map[gridrep.NodeID]*gridrep.Server, timeout time.Duration) gridrep.NodeID {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for id, s := range srvs {
			if s.Health().Leading {
				return id
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no TCP leader")
	return 0
}

// TestTCPOnlineJoinWithPrunedWAL is the end-to-end acceptance scenario
// for online reconfiguration (ISSUE 6): a 3-replica TCP cluster under
// write load loses one replica, the survivors prune their WALs below
// the cluster watermark, and a brand-new replacement started with
// Join=true (replicad's -join flag takes this exact path) must install
// a streamed snapshot, replay the live suffix, and be promoted to voter
// by a committed configuration entry — with zero acked writes lost.
func TestTCPOnlineJoinWithPrunedWAL(t *testing.T) {
	dir := t.TempDir()
	peers := reservePorts(t, []gridrep.NodeID{0, 1, 2})
	srvs := make(map[gridrep.NodeID]*gridrep.Server, 4)
	for id := gridrep.NodeID(0); id < 3; id++ {
		srv, err := gridrep.ListenAndServe(gridrep.ServerOptions{
			ID:      id,
			Peers:   peers,
			Service: gridrep.NewKV(),
			WALPath: filepath.Join(dir, fmt.Sprintf("r%d.wal", id)),
			Options: gridrep.Options{
				HeartbeatInterval: 10 * time.Millisecond,
				SnapshotEvery:     16,
				PruneKeep:         4,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		srvs[id] = srv
		t.Cleanup(srv.Close)
	}
	cli, err := gridrep.Dial(gridrep.DialOptions{ID: 1, Replicas: peers, Deadline: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	put := func(i int) {
		if _, err := cli.Write(gridrep.KVPut(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%03d", i)))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		put(i)
	}

	// Kill a backup; its disk is gone for good.
	leader := tcpLeader(t, srvs, 5*time.Second)
	var victim gridrep.NodeID
	for id := range srvs {
		if id != leader {
			victim = id
			break
		}
	}
	// The survivors prune only below the victim's last gossiped applied
	// watermark (a dead member's lag bounds pruning until it is removed),
	// and its heartbeats carry that watermark once per interval. Killed
	// right after the writes, it can die having gossiped a watermark at
	// or below 2*PruneKeep, and then the survivors never prune: let it
	// apply every write and gossip that first.
	for deadline := time.Now().Add(5 * time.Second); srvs[victim].Health().Applied < 100; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the victim never applied the first 100 writes")
		}
	}
	time.Sleep(20 * 10 * time.Millisecond) // twenty heartbeat intervals
	srvs[victim].Close()
	delete(srvs, victim)

	// Load continues; survivors prune up to the dead node's last
	// gossiped watermark.
	for i := 100; i < 200; i++ {
		put(i)
	}
	deadline := time.Now().Add(15 * time.Second)
	for srvs[tcpLeader(t, srvs, 5*time.Second)].Health().PrunedIndex == 0 {
		if time.Now().After(deadline) {
			t.Fatal("survivors never pruned their WALs")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Replacement: new identity, empty WAL, -join path.
	joinPeers := make(map[gridrep.NodeID]string, 4)
	for id, addr := range peers {
		joinPeers[id] = addr
	}
	jp := reservePorts(t, []gridrep.NodeID{3})
	joinPeers[3] = jp[3]
	start := time.Now()
	joiner, err := gridrep.ListenAndServe(gridrep.ServerOptions{
		ID:      3,
		Peers:   joinPeers,
		Service: gridrep.NewKV(),
		WALPath: filepath.Join(dir, "r3.wal"),
		Options: gridrep.Options{
			HeartbeatInterval: 10 * time.Millisecond,
			SnapshotEvery:     16,
			PruneKeep:         4,
		},
		Join: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srvs[3] = joiner
	t.Cleanup(joiner.Close)

	// Wait for the committed add-voter entry to land.
	deadline = time.Now().Add(30 * time.Second)
	for {
		voter := false
		for _, m := range srvs[tcpLeader(t, srvs, 5*time.Second)].Health().Members {
			if m == 3 {
				voter = true
			}
		}
		if voter {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("joiner never promoted; leader health = %+v", srvs[tcpLeader(t, srvs, 5*time.Second)].Health())
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("TCP join to voter promotion took %v", time.Since(start))
	if h := joiner.Health(); h.SnapshotIndex == 0 {
		t.Fatalf("joiner caught up without a snapshot install: %+v", h)
	}

	// X-Paxos reads need confirms from a majority of the NEW voter set,
	// and clients broadcast reads to the replicas in their address book —
	// so after a membership change the operator must refresh client
	// books (README: online reconfiguration). Dial with the grown set.
	cli2, err := gridrep.Dial(gridrep.DialOptions{ID: 2, Replicas: joinPeers, Deadline: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()

	// Zero lost acked writes through the whole sequence.
	for i := 0; i < 200; i += 11 {
		res, err := cli2.Read(gridrep.KVGet(fmt.Sprintf("k%03d", i)))
		if err != nil {
			for id, s := range srvs {
				t.Logf("replica %d health: %+v", id, s.Health())
			}
			t.Fatalf("read k%03d: %v", i, err)
		}
		if v, ok := gridrep.KVReply(res); !ok || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("k%03d = %q (acked write lost)", i, v)
		}
	}
	if _, err := cli2.Write(gridrep.KVPut("post-join", []byte("ok"))); err != nil {
		t.Fatalf("write after join: %v", err)
	}
}

// TestTCPGracefulShutdownFlushesWAL: Server.Shutdown (replicad's
// SIGTERM path) must flush the staged group-commit batch before closing
// the store, so a reopen replays the complete local log — including the
// chosen markers that a crash-model Close may leave staged in RAM.
func TestTCPGracefulShutdownFlushesWAL(t *testing.T) {
	dir := t.TempDir()
	peers := reservePorts(t, []gridrep.NodeID{0})
	walPath := filepath.Join(dir, "r0.wal")
	srv, err := gridrep.ListenAndServe(gridrep.ServerOptions{
		ID:      0,
		Peers:   peers,
		Service: gridrep.NewKV(),
		WALPath: walPath,
		Options: gridrep.Options{HeartbeatInterval: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := gridrep.Dial(gridrep.DialOptions{ID: 1, Replicas: peers, Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := cli.Write(gridrep.KVPut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	cli.Close()
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	st, err := storage.OpenFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ps, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if ps.Chosen < n {
		t.Fatalf("replayed Chosen = %d, want >= %d: staged chosen markers lost on graceful shutdown", ps.Chosen, n)
	}
	if ps.Accepted.Len() == 0 {
		t.Fatal("no accepted entries replayed after graceful shutdown")
	}
}

// TestTCPServerReconfigure drives membership changes through the
// Server methods replicad's operators use: a backup refuses to propose,
// the leader refuses to remove itself, promoting a voter is trivially
// done, and removing a live backup commits while writes go on.
func TestTCPServerReconfigure(t *testing.T) {
	dir := t.TempDir()
	ids := []gridrep.NodeID{0, 1, 2}
	peers := reservePorts(t, ids)
	srvs := make(map[gridrep.NodeID]*gridrep.Server, len(ids))
	for _, id := range ids {
		srvs[id] = startKVServer(t, dir, id, peers, nil)
		t.Cleanup(srvs[id].Close)
		if got := srvs[id].Addr(); got != peers[id] {
			t.Fatalf("replica %d listens on %s, want %s", id, got, peers[id])
		}
	}
	leader := tcpLeader(t, srvs, 15*time.Second)
	backup := (leader + 1) % 3

	if err := srvs[backup].RemoveReplica(leader); !errors.Is(err, gridrep.ErrNotLeader) {
		t.Fatalf("remove through a backup: %v, want ErrNotLeader", err)
	}
	if err := srvs[leader].RemoveReplica(leader); !errors.Is(err, gridrep.ErrUnsafeChange) {
		t.Fatalf("leader removing itself: %v, want ErrUnsafeChange", err)
	}
	if err := srvs[leader].AddVoter(backup, peers[backup]); err != nil {
		t.Fatalf("promoting a voter: %v", err)
	}

	cli, err := gridrep.Dial(gridrep.DialOptions{ID: 1, Replicas: peers, Deadline: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(gridrep.KVPut("before", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	if err := srvs[leader].RemoveReplica(backup); err != nil {
		t.Fatalf("removing a live backup: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); slices.Contains(srvs[leader].Health().Members, backup); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("backup %d still a member: %+v", backup, srvs[leader].Health())
		}
	}
	if err := srvs[leader].AddVoter(backup, peers[backup]); !errors.Is(err, gridrep.ErrUnsafeChange) {
		t.Fatalf("promoting a removed node: %v, want ErrUnsafeChange", err)
	}
	if _, err := cli.Write(gridrep.KVPut("after", []byte("v"))); err != nil {
		t.Fatalf("write after the removal: %v", err)
	}
}
