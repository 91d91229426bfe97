package core_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/metrics"
	"gridrep/internal/netem"
	"gridrep/internal/service"
)

// leaderMetrics returns the current leader's registry.
func leaderMetrics(t *testing.T, c *cluster.Cluster) *metrics.Registry {
	t.Helper()
	id, ok := c.Leader()
	if !ok {
		t.Fatal("no leader")
	}
	rep, ok := c.Replica(id)
	if !ok {
		t.Fatal("leader replica missing")
	}
	return rep.Metrics()
}

// runWriters issues writers*each KVAdd("ctr", 1) increments from
// concurrent clients and fails the test on any error.
func runWriters(t *testing.T, c *cluster.Cluster, writers, each int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		cli, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cli.Close()
			for i := 0; i < each; i++ {
				if _, err := cli.Write(service.KVAdd("ctr", 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// checkCounter asserts the replicated counter holds exactly want — every
// acked increment applied exactly once — and that all replicas converge
// to identical state.
func checkCounter(t *testing.T, c *cluster.Cluster, want int64) {
	t.Helper()
	waitConverged(t, c)
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	res, err := cli.Read(service.KVGet("ctr"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := service.KVInt(res)
	if got != want {
		t.Fatalf("ctr = %d, want %d (lost or duplicated acked writes)", got, want)
	}
	snaps := snapshotAll(t, c)
	for i, s := range snaps {
		if !bytes.Equal(s, snaps[0]) {
			t.Fatalf("replica #%d diverged", i)
		}
	}
}

// TestPipelinedWritesOverlapAndCommitInOrder runs concurrent writers
// against a depth-4 leader on a WAN-like profile whose quorum RTT is
// long enough that waves genuinely overlap. Every ack must be correct
// (the counter is exact) and the pipeline must actually have been used.
func TestPipelinedWritesOverlapAndCommitInOrder(t *testing.T) {
	c := newCluster(t, cluster.Config{
		Service: service.KVFactory,
		Profile: netem.WAN(0),
		Options: core.Options{
			PipelineDepth: 4,
			NoBatch:       true, // one request per wave: the pipeline, not batching, must absorb concurrency
		},
	})
	const writers, each = 4, 6
	runWriters(t, c, writers, each)
	checkCounter(t, c, writers*each)

	m := leaderMetrics(t, c)
	if max := m.Value("gridrep_waves_in_flight_max"); max < 2 {
		t.Fatalf("waves in flight max = %d; waves never overlapped", max)
	}
	if n := m.Value("gridrep_waves_in_flight"); n != 0 {
		t.Fatalf("waves in flight = %d after quiescence", n)
	}
	if started, committed := m.Value("gridrep_waves_started_total"), m.Value("gridrep_waves_committed_total"); started != committed {
		t.Fatalf("waves started %d != committed %d after quiescence", started, committed)
	}
}

// TestPipelineDepthOneStaysSerial checks the compatibility contract:
// with the default depth the leader never has more than one wave in
// flight, reproducing the paper's serial protocol exactly.
func TestPipelineDepthOneStaysSerial(t *testing.T) {
	c := newCluster(t, cluster.Config{
		Service: service.KVFactory,
		Profile: netem.WAN(0),
		Options: core.Options{
			PipelineDepth: 1,
			NoBatch:       true,
		},
	})
	runWriters(t, c, 4, 4)
	checkCounter(t, c, 16)

	if max := leaderMetrics(t, c).Value("gridrep_waves_in_flight_max"); max > 1 {
		t.Fatalf("waves in flight max = %d at depth 1; the serial protocol allows only 1", max)
	}
}

// TestLeaderSwitchMidPipelineRollsBack forces a §3.6 leader switch while
// a depth-4 pipeline is busy. The demoted leader must re-derive its
// service at the last committed instance (discarding speculative
// executions), and no acked write may be lost or duplicated across the
// switch — clients retry unacked requests at the new leader and the
// reply cache deduplicates.
func TestLeaderSwitchMidPipelineRollsBack(t *testing.T) {
	c := newCluster(t, cluster.Config{
		Service: service.KVFactory,
		Profile: netem.WAN(0),
		Options: core.Options{
			PipelineDepth: 4,
			NoBatch:       true,
		},
	})
	oldLeader, ok := c.Leader()
	if !ok {
		t.Fatal("no leader")
	}
	rep, _ := c.Replica(oldLeader)

	const writers, each = 4, 8
	done := make(chan struct{})
	go func() {
		defer close(done)
		runWriters(t, c, writers, each)
	}()
	// Wait until the pipeline is demonstrably occupied (the registry is
	// safe from any goroutine), then yank leadership mid-flight: with a ~35ms
	// quorum RTT the in-flight waves cannot commit before the demotion
	// lands on the event loop.
	deadline := time.Now().Add(5 * time.Second)
	for rep.Metrics().Value("gridrep_waves_in_flight") < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rep.Metrics().Value("gridrep_waves_in_flight") < 2 {
		t.Fatal("pipeline never filled with 2+ waves")
	}
	c.SuspectLeader()
	<-done

	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkCounter(t, c, writers*each)

	// The demoted leader re-derived past whatever was speculative. With 4
	// concurrent WAN writers and a ~35ms quorum RTT the pipeline is
	// essentially always occupied, so the demotion must have found waves
	// in flight.
	if rep.Metrics().Value("gridrep_spec_rollbacks_total") == 0 {
		t.Fatalf("spec rollbacks = 0 after demotion mid-pipeline (waves rolled back: %d)",
			rep.Metrics().Value("gridrep_waves_rolled_back_total"))
	}
}
