package cluster

import (
	"testing"
	"time"

	"gridrep/internal/core"
	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// TestProfileTimeoutDerivation pins the contract referenced by the
// netem.Profile.MaxOneWay doc comment: for every shipped profile, the
// declared MaxOneWay really bounds the worst one-way delay the model can
// sample (base + jitter + tail), and the timeouts fillDefaults derives
// from it keep Ω stable — a heartbeat interval that covers a full
// one-way trip twice over, an election timeout several heartbeats wide,
// and a retry timeout that exceeds a round trip even on the worst link.
func TestProfileTimeoutDerivation(t *testing.T) {
	for _, name := range netem.ProfileNames() {
		p, err := netem.ProfileByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := p.NewModel(1).MaxOneWay(); got > p.MaxOneWay {
			t.Errorf("%s: model worst one-way %v exceeds declared MaxOneWay %v (jitter+tail not covered)",
				name, got, p.MaxOneWay)
		}
		cfg := Config{Profile: p}
		cfg.fillDefaults()
		if cfg.HeartbeatInterval < 25*time.Millisecond {
			t.Errorf("%s: heartbeat %v below the 25ms floor", name, cfg.HeartbeatInterval)
		}
		if cfg.HeartbeatInterval < 2*p.MaxOneWay {
			t.Errorf("%s: heartbeat %v < 2x MaxOneWay %v — tail samples would false-suspect the leader",
				name, cfg.HeartbeatInterval, p.MaxOneWay)
		}
		if cfg.ElectionTimeout != 8*cfg.HeartbeatInterval {
			t.Errorf("%s: election timeout %v, want 8x heartbeat %v",
				name, cfg.ElectionTimeout, cfg.HeartbeatInterval)
		}
		if cfg.RetryTimeout < 4*cfg.HeartbeatInterval || cfg.RetryTimeout < 6*p.MaxOneWay {
			t.Errorf("%s: retry timeout %v, want >= max(4x heartbeat, 6x MaxOneWay)",
				name, cfg.RetryTimeout)
		}
	}
	// The geo spreads must be the profiles with geography attached —
	// the WAN tests below rely on RegionOf.
	for _, name := range []string{"wan3", "wan5"} {
		p, _ := netem.ProfileByName(name)
		if p.Regions == 0 || p.RegionOf == nil {
			t.Errorf("%s: no region mapping", name)
		}
	}
}

// cutRegion severs (or heals) every replica link crossing region r's
// boundary on the in-process fabric — the netem analogue of the chaos
// grid's PartitionRegion. Clients are left attached so the test can
// observe the cluster from outside the partition.
func cutRegion(c *Cluster, regionOf func(wire.NodeID) int, r int, on bool) {
	m := c.Net.Model()
	ids := c.IDs()
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if (regionOf(a) == r) != (regionOf(b) == r) {
				if on {
					m.Cut(a, b)
				} else {
					m.Heal(a, b)
				}
			}
		}
	}
}

// TestWANNearReadLinearizableUnderRegionPartition is the WAN
// linearizability bracket (ISSUE 10): on the compressed wan3 geography
// with nearest-replica reads and RTT placement enabled, a client
// interleaves acknowledged writes with reads while first the leader's
// region and then the client's own region drop off the backbone. The
// invariants: every read observes at least the client's own acknowledged
// writes (reads never travel backwards), and after healing, the counter
// equals exactly the number of acknowledged increments — zero acked
// writes lost, none duplicated, under partition and the leader failover
// it forces.
func TestWANNearReadLinearizableUnderRegionPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN bracket skipped in -short mode")
	}
	prof := netem.WAN3Scaled(0.02) // real shape, ~2ms cross-region hops
	c := newTestCluster(t, Config{
		N:         3,
		Profile:   prof,
		Seed:      1,
		Service:   service.KVFactory,
		NearReads: true,
		Options: core.Options{
			RTTPlacement:      true,
			HeartbeatInterval: 25 * time.Millisecond,
		},
		ClientRetryEvery: 50 * time.Millisecond,
		ClientDeadline:   30 * time.Second,
	})
	if _, err := c.WaitForLeader(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	clientRegion := prof.RegionOf(cli.ID())

	acked := 0
	var lastRead int64
	write := func() {
		t.Helper()
		if _, err := cli.Write(service.KVAdd("ctr", 1)); err != nil {
			t.Fatalf("write %d: %v", acked, err)
		}
		acked++
	}
	read := func() {
		t.Helper()
		res, err := cli.Read(service.KVGet("ctr"))
		if err != nil {
			t.Fatalf("read after %d acked: %v", acked, err)
		}
		got, ok := service.KVInt(res)
		if !ok {
			t.Fatalf("read reply not an int: %q", res)
		}
		if got < int64(acked) {
			t.Fatalf("read %d < %d acked writes — a read missed an acknowledged write", got, acked)
		}
		if got < lastRead {
			t.Fatalf("read %d < previous read %d — reads travelled backwards", got, lastRead)
		}
		lastRead = got
	}
	phase := func(n int) {
		for i := 0; i < n; i++ {
			write()
			read()
		}
	}

	// Healthy geography.
	phase(5)

	// The leader's continent drops off the backbone: the two remaining
	// regions elect a new leader and keep acknowledging. If the client's
	// near replica is inside the lost region, its near reads expire and
	// fall back to the leader path — slower, never wrong.
	lead, ok := c.Leader()
	if !ok {
		t.Fatal("no leader before partition")
	}
	lostRegion := prof.RegionOf(lead)
	cutRegion(c, prof.RegionOf, lostRegion, true)
	phase(5)
	cutRegion(c, prof.RegionOf, lostRegion, false)

	// The client's own region partitions next (when distinct): its
	// nearest replica is now the one that cannot reach a confirm quorum.
	if clientRegion != lostRegion {
		cutRegion(c, prof.RegionOf, clientRegion, true)
		phase(5)
		cutRegion(c, prof.RegionOf, clientRegion, false)
	}

	// Healed: full geography again, and the exact count must hold.
	phase(5)
	res, err := cli.Read(service.KVGet("ctr"))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := service.KVInt(res)
	if !ok {
		t.Fatalf("final read not an int: %q", res)
	}
	if got != int64(acked) {
		t.Fatalf("final counter %d, want exactly %d acknowledged increments", got, acked)
	}
}

// TestWANNearReadsServeFromNearReplica pins that the optimisation is
// actually on: on the wan3 geography a remote client's reads increment
// some replica's near-read counter rather than all landing on the
// leader.
func TestWANNearReadsServeFromNearReplica(t *testing.T) {
	prof := netem.WAN3Scaled(0.02)
	c := newTestCluster(t, Config{
		N:                3,
		Profile:          prof,
		Seed:             1,
		Service:          service.KVFactory,
		NearReads:        true,
		Options:          core.Options{HeartbeatInterval: 25 * time.Millisecond},
		ClientRetryEvery: 50 * time.Millisecond,
		ClientDeadline:   30 * time.Second,
	})
	if _, err := c.WaitForLeader(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(service.KVPut("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	const reads = 10
	for i := 0; i < reads; i++ {
		if _, err := cli.Read(service.KVGet("k")); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	var near int64
	for _, id := range c.IDs() {
		rep, ok := c.Replica(id)
		if !ok {
			continue
		}
		near += rep.Metrics().Value("gridrep_reads_near_total")
	}
	if near == 0 {
		t.Fatalf("no reads served via the near path after %d reads with NearReads on", reads)
	}
}
