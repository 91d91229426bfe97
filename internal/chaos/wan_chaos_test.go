package chaos_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"gridrep/internal/chaos"
	"gridrep/internal/client"
	"gridrep/internal/core"
	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// TestWANRegionPartitionZeroAckedLoss is the region-partition chaos
// scenario of the geo-replication suite (ISSUE 10): a 3-replica TCP
// cluster whose inter-replica links run through chaos proxies
// programmed with the wan3 geography (one replica per continent,
// asymmetric cross-region delays). Mid-workload the current leader's
// region drops off the backbone — every link crossing its boundary is
// taken down — so the two surviving regions must elect a new leader
// and keep acknowledging; after the heal the deposed region rejoins.
// The invariant is the paper's: zero acknowledged writes lost, under a
// partition that forces a cross-continent failover.
func TestWANRegionPartitionZeroAckedLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN chaos test skipped in -short mode")
	}
	prof := netem.WAN3Scaled(0.05) // real shape, ~2-5ms cross-region hops
	peers := []wire.NodeID{0, 1, 2}
	topts := transport.Options{
		QueueLen:     32,
		BackoffMin:   5 * time.Millisecond,
		BackoffMax:   100 * time.Millisecond,
		WriteTimeout: 2 * time.Second,
		PingEvery:    20 * time.Millisecond,
		PingTimeout:  150 * time.Millisecond,
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
	// Program the geography before any replica dials: every directed
	// link gets its wan3 mean one-way delay.
	if err := grid.ApplyProfile(prof, 1); err != nil {
		t.Fatalf("apply profile: %v", err)
	}
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
			Service:   service.NewKV(),
			Transport: trs[id],
			// Heartbeats must outpace the scaled cross-region delay
			// (~5ms worst mean) by a wide margin, and the ping timeout
			// beats the election timeout so the partitioned leader is
			// deposed by the transport's PeerDown signal.
			Options: core.Options{
				HeartbeatInterval: 20 * time.Millisecond,
				ElectionTimeout:   400 * time.Millisecond,
				RetryTimeout:      80 * time.Millisecond,
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
	// A partitioned incumbent cannot learn it was deposed, so it may
	// keep claiming leadership inside its lost region; scan every
	// replica for an active leader outside the region instead of
	// trusting the first claimant.
	waitLeaderOutside := func(region int) wire.NodeID {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			for _, r := range reps {
				if region >= 0 && prof.RegionOf(r.ID()) == region {
					continue
				}
				var lead bool
				if r.Inspect(func(rr *core.Replica) { lead = rr.IsActiveLeader() }) && lead {
					return r.ID()
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("no leader elected outside region %d", region)
		return 0
	}
	waitLeaderOutside(-1)

	// The client dials the replicas' real addresses: the partition is
	// injected only on the replica backbone, so the client can still
	// reach the lost region directly — it just gets no quorum there.
	ctr := transport.DialTCPOpts(wire.ClientIDBase+1, realBook, topts)
	cli := client.New(client.Config{
		Transport:  ctr,
		Replicas:   peers,
		RetryEvery: 50 * time.Millisecond,
		Deadline:   20 * time.Second,
	})
	defer cli.Close()

	const ops = 150
	acked := make(map[string][]byte, ops)
	var lostRegion int
	for i := 0; i < ops; i++ {
		if i == ops/3 {
			// The leader's continent drops off the backbone.
			lead, ok := leaderOf()
			if !ok {
				t.Fatal("no leader before partition")
			}
			lostRegion = prof.RegionOf(lead)
			if err := grid.PartitionRegion(lostRegion, prof.RegionOf, true); err != nil {
				t.Fatalf("partition region %d: %v", lostRegion, err)
			}
		}
		if i == ops/3+1 {
			// The surviving regions must produce a new leader on a
			// different continent before writes can proceed.
			nl := waitLeaderOutside(lostRegion)
			t.Logf("failover: region %d lost, new leader %d in region %d",
				lostRegion, nl, prof.RegionOf(nl))
		}
		if i == 2*ops/3 {
			if err := grid.PartitionRegion(lostRegion, prof.RegionOf, false); err != nil {
				t.Fatalf("heal region %d: %v", lostRegion, err)
			}
		}
		key := fmt.Sprintf("k%03d", i)
		val := []byte(fmt.Sprintf("v%03d", i))
		if _, err := cli.Write(service.KVPut(key, val)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		acked[key] = val
	}

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
	t.Logf("wan3 chaos: %d writes acked across region-%d partition; grid %+v",
		ops, lostRegion, grid.Stats())
}
