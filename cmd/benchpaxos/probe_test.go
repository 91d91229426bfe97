package main

import (
	"sync"
	"testing"
	"time"

	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/netem"
	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

// TestProbeWaveFragmentation reports waves started, average batch size,
// and leader WAL flush/sync counts per pipeline depth under a fixed
// closed-loop write load — the diagnostic that exposed (and now guards)
// speculative batch fragmentation: without the launch gate in
// maybeStartWave, depth 4 runs 2-3× the waves of depth 1 with
// near-singleton batches. Run with -v for the numbers:
//
//	go test -run TestProbeWaveFragmentation -v ./cmd/benchpaxos
func TestProbeWaveFragmentation(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	var serialWaves uint64
	for _, depth := range []int{1, 4} {
		dir := t.TempDir()
		stores := map[wire.NodeID]storage.Store{}
		for i := 0; i < 3; i++ {
			fs, err := storage.OpenFile(dir + "/r" + string(rune('0'+i)) + ".wal")
			if err != nil {
				t.Fatal(err)
			}
			stores[wire.NodeID(i)] = fs
		}
		cfg := cluster.Config{N: 3, Profile: netem.Sysnet(), Seed: 1,
			ClientDeadline: 60 * time.Second, Options: core.Options{PipelineDepth: depth}, Stores: stores}
		c, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitForLeader(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		const writers, each = 8, 250
		var wg sync.WaitGroup
		start := time.Now()
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
					if _, err := cli.Write([]byte("x")); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		el := time.Since(start)
		lead, _ := c.Leader()
		rep, _ := c.Replica(lead)
		started := uint64(rep.Metrics().Value("gridrep_waves_started_total"))
		maxInFlight := rep.Metrics().Value("gridrep_waves_in_flight_max")
		fs := stores[lead].(*storage.File).Stats()
		t.Logf("depth=%d: %.0f req/s, waves=%d avg_batch=%.2f max_inflight=%d leader_wal{batches=%d syncs=%d records=%d}",
			depth, float64(writers*each)/el.Seconds(), started,
			float64(writers*each)/float64(started), maxInFlight,
			fs.Batches, fs.Syncs, fs.Records)
		if maxInFlight > int64(depth) {
			t.Errorf("depth=%d: %d waves in flight exceeds PipelineDepth", depth, maxInFlight)
		}
		// The launch gate must hold batching at the serial schedule's
		// size: the whole run is writers×each requests, and the serial
		// protocol needs at most one wave per round trip. A fragmenting
		// leader (the pre-gate failure mode) started 2-3× the serial
		// wave count; allow 25% slack for the cold-start ramp.
		if depth > 1 && started > serialWaves*5/4 {
			t.Errorf("depth=%d: %d waves for %d requests (serial took %d) — speculative batch fragmentation",
				depth, started, writers*each, serialWaves)
		}
		if depth == 1 {
			serialWaves = started
		}
		c.Close()
	}
}
