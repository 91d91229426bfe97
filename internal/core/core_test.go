package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"gridrep/internal/client"
	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// newCluster builds a 3-replica loopback cluster with fast timeouts and
// waits for a leader.
func newCluster(t *testing.T, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 5 * time.Millisecond
	}
	if cfg.ClientRetryEvery == 0 {
		cfg.ClientRetryEvery = 100 * time.Millisecond
	}
	if cfg.ClientDeadline == 0 {
		cfg.ClientDeadline = 10 * time.Second
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

// replica returns the running group-0 replica id.
func replica(t *testing.T, c *cluster.Cluster, id wire.NodeID) *core.Replica {
	t.Helper()
	rep, ok := c.Replica(id)
	if !ok {
		t.Fatalf("replica %v is not running", id)
	}
	return rep
}

func newKVCluster(t *testing.T) (*cluster.Cluster, *client.Client) {
	t.Helper()
	c := newCluster(t, cluster.Config{Service: service.KVFactory})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	return c, cli
}

func TestBootElectsSingleStableLeader(t *testing.T) {
	// Ω guarantees a single stable leader, and the entitlement rule
	// biases the boot election to the lowest live replica; under heavy
	// scheduler stalls (e.g. the race detector) a higher replica may
	// legitimately win, so only stability is asserted.
	c := newCluster(t, cluster.Config{})
	leader, ok := c.Leader()
	if !ok {
		t.Fatal("no leader after boot")
	}
	time.Sleep(100 * time.Millisecond)
	again, ok := c.Leader()
	if !ok || again != leader {
		t.Fatalf("leadership flapped: %v -> %v", leader, again)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, cli := newKVCluster(t)
	if _, err := cli.Write(service.KVPut("k", []byte("v1"))); err != nil {
		t.Fatalf("write: %v", err)
	}
	res, err := cli.Read(service.KVGet("k"))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if v, ok := service.KVReply(res); !ok || string(v) != "v1" {
		t.Fatalf("read = %q,%v", v, ok)
	}
}

func TestReadReflectsLatestWrite(t *testing.T) {
	// §3.4's consistency requirement: the value returned by a read must
	// reflect the latest update.
	_, cli := newKVCluster(t)
	for i := 0; i < 20; i++ {
		want := []byte(fmt.Sprintf("v%d", i))
		if _, err := cli.Write(service.KVPut("k", want)); err != nil {
			t.Fatal(err)
		}
		res, err := cli.Read(service.KVGet("k"))
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := service.KVReply(res); !bytes.Equal(v, want) {
			t.Fatalf("iteration %d: read %q, want %q", i, v, want)
		}
	}
}

func TestOriginalBaseline(t *testing.T) {
	_, cli := newKVCluster(t)
	if _, err := cli.Original(service.KVPut("k", []byte("v"))); err != nil {
		t.Fatalf("original: %v", err)
	}
	res, err := cli.Original(service.KVGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := service.KVReply(res); string(v) != "v" {
		t.Fatalf("original read = %q", v)
	}
}

func TestServiceErrorReported(t *testing.T) {
	_, cli := newKVCluster(t)
	_, err := cli.Write([]byte{0xFF, 0x00}) // malformed op
	var se *client.ServiceError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want ServiceError", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	c := newCluster(t, cluster.Config{Service: service.KVFactory})
	const nClients = 8
	const nOps = 25
	errCh := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		cli, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		go func(i int, cli *client.Client) {
			defer cli.Close()
			key := fmt.Sprintf("k%d", i)
			for j := 0; j < nOps; j++ {
				if _, err := cli.Write(service.KVAdd(key, 1)); err != nil {
					errCh <- err
					return
				}
			}
			res, err := cli.Read(service.KVGet(key))
			if err != nil {
				errCh <- err
				return
			}
			if n, _ := service.KVInt(res); n != nOps {
				errCh <- fmt.Errorf("client %d: counter = %d, want %d", i, n, nOps)
				return
			}
			errCh <- nil
		}(i, cli)
	}
	for i := 0; i < nClients; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

// TestNondeterministicStateConsistency is the paper's core claim: even
// for a service whose executions are randomized, all replicas end up with
// the identical state, because the leader's post-execution state — not
// the request — is what consensus decides.
func TestNondeterministicStateConsistency(t *testing.T) {
	seed := int64(0)
	c := newCluster(t, cluster.Config{Service: func() service.Service {
		seed++
		return service.NewBroker(seed) // every replica gets a different RNG
	}})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for i := 0; i < 4; i++ {
		if _, err := cli.Write(service.BrokerRegister(fmt.Sprintf("res%d", i), 10)); err != nil {
			t.Fatal(err)
		}
	}
	var selections [][]string
	for i := 0; i < 10; i++ {
		res, err := cli.Write(service.BrokerRequest(2))
		if err != nil {
			t.Fatal(err)
		}
		sel, err := service.BrokerSelection(res)
		if err != nil {
			t.Fatal(err)
		}
		selections = append(selections, sel)
	}
	waitConverged(t, c)

	// All replicas must hold the identical broker state.
	snaps := snapshotAll(t, c)
	for id, snap := range snaps {
		if !bytes.Equal(snap, snaps[0]) {
			t.Fatalf("replica %v state diverged from replica 0", id)
		}
	}
	// And the replicated state must reflect the leader's actual random
	// selections: total in-use = 20.
	total := 0
	for _, sel := range selections {
		total += len(sel)
	}
	if total != 20 {
		t.Fatalf("selections lost: %d", total)
	}
}

// waitConverged blocks until every replica has applied the same commit
// index as the leader.
func waitConverged(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var chosen []uint64
		var applied []uint64
		for _, id := range c.IDs() {
			rep, ok := c.Replica(id)
			if !ok {
				continue // crashed
			}
			rep.Inspect(func(r *core.Replica) {
				chosen = append(chosen, r.Chosen())
				applied = append(applied, r.Applied())
			})
		}
		same := true
		for i := 1; i < len(chosen); i++ {
			if chosen[i] != chosen[0] || applied[i] != applied[0] || applied[i] != chosen[i] {
				same = false
			}
		}
		if same && len(chosen) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("replicas did not converge")
}

// snapshotAll returns every live replica's service snapshot, indexed by
// position in IDs order.
func snapshotAll(t *testing.T, c *cluster.Cluster) [][]byte {
	t.Helper()
	var snaps [][]byte
	for _, id := range c.IDs() {
		rep, ok := c.Replica(id)
		if !ok {
			continue
		}
		var snap []byte
		rep.Inspect(func(r *core.Replica) { snap = r.Service().Snapshot() })
		snaps = append(snaps, snap)
	}
	return snaps
}

func TestBackupsAdoptLeaderState(t *testing.T) {
	c, cli := newKVCluster(t)
	for i := 0; i < 10; i++ {
		if _, err := cli.Write(service.KVPut(fmt.Sprintf("k%d", i), []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, c)
	snaps := snapshotAll(t, c)
	for i, snap := range snaps {
		if !bytes.Equal(snap, snaps[0]) {
			t.Fatalf("replica #%d state differs", i)
		}
	}
}

func TestRetransmitIsIdempotent(t *testing.T) {
	// A lossy network forces client retransmits; KVAdd is not
	// idempotent at the service level, so exactly-once depends on the
	// leader's reply cache.
	c := newCluster(t, cluster.Config{
		Service: service.KVFactory,
		Profile: netem.Loopback(),
	})
	// 20% loss on client<->replica traffic.
	c.Net.Model().SetLoss(netem.ClassClient, netem.ClassReplica, 0.2)
	c.Net.Model().SetLoss(netem.ClassReplica, netem.ClassClient, 0.2)
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const n = 15
	for i := 0; i < n; i++ {
		if _, err := cli.Write(service.KVAdd("ctr", 1)); err != nil {
			t.Fatal(err)
		}
	}
	c.Net.Model().SetLoss(netem.ClassClient, netem.ClassReplica, 0)
	c.Net.Model().SetLoss(netem.ClassReplica, netem.ClassClient, 0)
	res, err := cli.Read(service.KVGet("ctr"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := service.KVInt(res); got != n {
		t.Fatalf("counter = %d, want %d (duplicated or lost execution)", got, n)
	}
}

func TestLeaderFailover(t *testing.T) {
	c, cli := newKVCluster(t)
	if _, err := cli.Write(service.KVPut("k", []byte("before"))); err != nil {
		t.Fatal(err)
	}
	old, _ := c.Leader()
	c.Crash(old)
	// The client keeps retrying; a new leader must take over and serve.
	if _, err := cli.Write(service.KVPut("k", []byte("after"))); err != nil {
		t.Fatalf("write after leader crash: %v", err)
	}
	res, err := cli.Read(service.KVGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := service.KVReply(res); string(v) != "after" {
		t.Fatalf("read = %q after failover", v)
	}
	newLeader, ok := c.Leader()
	if !ok || newLeader == old {
		t.Fatalf("leader did not move: %v", newLeader)
	}
}

func TestFailoverPreservesCommittedState(t *testing.T) {
	c, cli := newKVCluster(t)
	for i := 0; i < 10; i++ {
		if _, err := cli.Write(service.KVAdd("ctr", 1)); err != nil {
			t.Fatal(err)
		}
	}
	old, _ := c.Leader()
	c.Crash(old)
	res, err := cli.Read(service.KVGet("ctr"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := service.KVInt(res); got != 10 {
		t.Fatalf("counter = %d after failover, want 10", got)
	}
}

func TestCrashedReplicaRecoversAndCatchesUp(t *testing.T) {
	c, cli := newKVCluster(t)
	crash := wire.NodeID(2) // crash a backup
	c.Crash(crash)
	for i := 0; i < 10; i++ {
		if _, err := cli.Write(service.KVPut(fmt.Sprintf("k%d", i), []byte("x"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Restart(crash); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c)
	snaps := snapshotAll(t, c)
	for i, snap := range snaps {
		if !bytes.Equal(snap, snaps[0]) {
			t.Fatalf("recovered replica state differs (#%d)", i)
		}
	}
}

func TestRecoveredReplicaCanLead(t *testing.T) {
	c, cli := newKVCluster(t)
	if _, err := cli.Write(service.KVPut("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	// Crash both backups, write is impossible (no quorum), so first
	// crash only one, write, restart it, then crash the other two and
	// let the recovered one... simpler: crash backup 1, write, restart,
	// wait converged, then crash leader 0 AND backup 2 is alive: the
	// new leader is chosen between 1 and 2; force it to be the
	// recovered replica by crashing 2 as well after 1 catches up? A
	// majority of 3 is 2, so only one crash at a time.
	c.Crash(1)
	if _, err := cli.Write(service.KVPut("k", []byte("v2"))); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c)
	// Now crash the leader and replica 2, leaving only the recovered
	// replica 1... that breaks quorum. Instead crash just the leader;
	// replica 1 (recovered, lower ID than 2) must take over with full
	// state.
	c.Crash(0)
	res, err := cli.Read(service.KVGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := service.KVReply(res); string(v) != "v2" {
		t.Fatalf("read after recovered-replica failover = %q", v)
	}
	leader, ok := c.Leader()
	if !ok || leader != 1 {
		t.Fatalf("leader = %v, want recovered replica 1", leader)
	}
}

func TestMinorityCrashTolerated(t *testing.T) {
	// floor((n-1)/2) = 1 crash of a 3-replica group must not block.
	c, cli := newKVCluster(t)
	c.Crash(2)
	for i := 0; i < 5; i++ {
		if _, err := cli.Write(service.KVAdd("ctr", 1)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cli.Read(service.KVGet("ctr"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := service.KVInt(res); got != 5 {
		t.Fatalf("counter = %d", got)
	}
}

func TestFiveReplicasTolerateTwoCrashes(t *testing.T) {
	c := newCluster(t, cluster.Config{N: 5, Service: service.KVFactory})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(service.KVPut("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	c.Crash(3)
	c.Crash(4)
	if _, err := cli.Write(service.KVPut("k", []byte("v2"))); err != nil {
		t.Fatalf("write with 2/5 crashed: %v", err)
	}
	res, err := cli.Read(service.KVGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := service.KVReply(res); string(v) != "v2" {
		t.Fatalf("read = %q", v)
	}
}

func TestSingleReplicaCluster(t *testing.T) {
	c := newCluster(t, cluster.Config{N: 1, Service: service.KVFactory})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(service.KVPut("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	res, err := cli.Read(service.KVGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := service.KVReply(res); string(v) != "v" {
		t.Fatalf("read = %q", v)
	}
}

func TestForcedLeaderSwitch(t *testing.T) {
	c, cli := newKVCluster(t)
	if _, err := cli.Write(service.KVPut("k", []byte("v1"))); err != nil {
		t.Fatal(err)
	}
	old, _ := c.Leader()
	c.SuspectLeader()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if l, ok := c.Leader(); ok && l != old {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no leader switch after SuspectLeader")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Service keeps working and state survived.
	res, err := cli.Read(service.KVGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := service.KVReply(res); string(v) != "v1" {
		t.Fatalf("read = %q after forced switch", v)
	}
	if _, err := cli.Write(service.KVPut("k", []byte("v2"))); err != nil {
		t.Fatal(err)
	}
}
