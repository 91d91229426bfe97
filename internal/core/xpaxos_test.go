package core_test

import (
	"sync"
	"testing"
	"time"

	"gridrep/internal/client"
	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/wire"
)

func TestReadsConsumeNoLogInstances(t *testing.T) {
	// X-Paxos reads are not consensus instances (§3.4): the commit
	// index must not move.
	c, cli := newKVCluster(t)
	if _, err := cli.Write(service.KVPut("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	leaderID, _ := c.Leader()
	var before uint64
	replica(t, c, leaderID).Inspect(func(r *core.Replica) { before = r.Chosen() })
	for i := 0; i < 10; i++ {
		if _, err := cli.Read(service.KVGet("k")); err != nil {
			t.Fatal(err)
		}
	}
	var after uint64
	replica(t, c, leaderID).Inspect(func(r *core.Replica) { after = r.Chosen() })
	if after != before {
		t.Fatalf("reads consumed %d log instances", after-before)
	}
}

func TestDeposedLeaderCannotServeReads(t *testing.T) {
	// §3.4's safety claim: only the leader with the highest accepted
	// ballot can assemble majority confirms. Partition the old leader
	// away from everyone, force a new leader, heal the partition for
	// client traffic only, and check the old leader never answers.
	c, cli := newKVCluster(t)
	if _, err := cli.Write(service.KVPut("k", []byte("v1"))); err != nil {
		t.Fatal(err)
	}
	old, _ := c.Leader()
	// Cut the old leader off from the other replicas (but not from
	// clients), and have only them distrust it: hearing nothing, it goes
	// on believing it leads.
	for _, id := range others(c, old) {
		c.Net.Model().Cut(old, id)
		replica(t, c, id).Inspect(func(r *core.Replica) { r.Elector().Suspect(old) })
	}
	// Wait for a new leader among the connected majority.
	deadline := time.Now().Add(5 * time.Second)
	var newLeader = old
	for time.Now().Before(deadline) {
		if l, ok := c.Leader(); ok && l != old {
			newLeader = l
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if newLeader == old {
		t.Fatal("no new leader emerged")
	}
	// Write through the new leader, then read. The old leader still
	// thinks it leads, but it cannot collect confirms for its stale
	// ballot, so the reply must come from the new leader and reflect
	// the new write. The write must not reach the old leader: a wave it
	// can never commit would block its reads by itself, and the point is
	// that the confirm rule does.
	c.Net.Model().Cut(old, cli.ID())
	if _, err := cli.Write(service.KVPut("k", []byte("v2"))); err != nil {
		t.Fatal(err)
	}
	c.Net.Model().Heal(old, cli.ID())
	res, err := cli.Read(service.KVGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := service.KVReply(res); string(v) != "v2" {
		t.Fatalf("read returned %q — a deposed leader served a stale read", v)
	}

	// The same through the other kind of evidence: a client pinned to the
	// deposed leader as its nearest replica, and the confirm a backup
	// that has moved to the new ballot sends there (delivered by hand —
	// the partition would drop it). The stamp counts in any role, so the
	// old leader now has its quorum; what must stop it is the barrier the
	// stamp carries, which its state can never reach.
	if !isActiveLeader(t, c, old) {
		t.Fatal("the old leader stepped down; the schedule needs it to believe it leads")
	}
	ep, err := c.Net.Endpoint(wire.ClientIDBase + 920)
	if err != nil {
		t.Fatal(err)
	}
	pinned := client.New(client.Config{
		Transport: ep, Replicas: c.IDs(), RetryEvery: 100 * time.Millisecond,
		NearRead: true, NearPin: true, NearReplica: old,
	})
	defer pinned.Close()
	var bal wire.Ballot
	var chosen uint64
	replica(t, c, newLeader).Inspect(func(r *core.Replica) { bal, chosen = r.Ballot(), r.Chosen() })
	forger := newRawClient(t, c, 921)
	forger.ep.Send(&wire.Envelope{To: old, Msg: &wire.Confirm{
		Bal: bal, From: newLeader, Reads: []wire.Key{{Client: pinned.ID(), Seq: 1}},
		MaxAcc: chosen, MaxAccSet: true,
	}})
	res, err = pinned.Read(service.KVGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := service.KVReply(res); string(v) != "v2" {
		t.Fatalf("near read returned %q — a deposed leader served a stale read on stamp evidence", v)
	}
}

func TestReadsWaitForInFlightWrites(t *testing.T) {
	// A read arriving while writes are in flight must reflect them once
	// they commit (the barrier rule). Hammer interleaved writes/reads
	// from two goroutines sharing a monotonic counter.
	c := newCluster(t, cluster.Config{Service: service.KVFactory})
	wcli, _ := c.NewClient()
	rcli, _ := c.NewClient()
	defer wcli.Close()
	defer rcli.Close()

	var mu sync.Mutex
	written := int64(0) // count of completed (replied) writes

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 60; i++ {
			if _, err := wcli.Write(service.KVAdd("ctr", 1)); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			written++
			mu.Unlock()
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		mu.Lock()
		lower := written
		mu.Unlock()
		res, err := rcli.Read(service.KVGet("ctr"))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := service.KVInt(res)
		// Monotone-read bound: the read started after `lower` writes
		// had completed, so it must see at least that many.
		if got < lower {
			t.Fatalf("read %d < %d completed writes: stale read", got, lower)
		}
	}
}

// TestXPaxosLatencyAlgebra verifies the §3.4 latency claims on the WAN
// profile, where they are starkest: read ≈ 2M + max(E, m) is far below
// write ≈ 2M + E + 2m, and original ≈ 2M.
func TestXPaxosLatencyAlgebra(t *testing.T) {
	if testing.Short() {
		t.Skip("latency test uses real WAN-profile delays")
	}
	c := newCluster(t, cluster.Config{
		Profile: netem.WAN(0),
		Seed:    42,
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	measure := func(f func() error) time.Duration {
		// One warmup, then the median of 5.
		if err := f(); err != nil {
			t.Fatal(err)
		}
		var best time.Duration = time.Hour
		for i := 0; i < 5; i++ {
			start := time.Now()
			if err := f(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	orig := measure(func() error { _, err := cli.Original(service.NoopWriteOp); return err })
	read := measure(func() error { _, err := cli.Read(service.NoopReadOp); return err })
	write := measure(func() error { _, err := cli.Write(service.NoopWriteOp); return err })

	t.Logf("WAN RRT: original=%v read=%v write=%v (paper: 70.8 / 75.5 / 106.7 ms)", orig, read, write)
	if write < orig+25*time.Millisecond {
		t.Errorf("write (%v) should exceed original (%v) by ≈2m=35ms", write, orig)
	}
	if read > orig+15*time.Millisecond {
		t.Errorf("read (%v) should be within a few ms of original (%v)", read, orig)
	}
	if read >= write {
		t.Errorf("X-Paxos read (%v) must beat the basic protocol write (%v)", read, write)
	}
}

func TestConfirmBufferedBeforeRead(t *testing.T) {
	// On the WAN profile, backup confirms can reach the leader before
	// the client's own request does (client→backup is faster than
	// client→leader). Reads must still complete.
	if testing.Short() {
		t.Skip("uses WAN-profile delays")
	}
	c := newCluster(t, cluster.Config{Profile: netem.WAN(0), Seed: 7})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 5; i++ {
		if _, err := cli.Read(service.NoopReadOp); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
}
