package cluster

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"gridrep/internal/metrics"
)

// TestMetricsConcurrentReaders hammers every cross-goroutine observation
// surface — Health, registry Snapshot, and the Prometheus renderer —
// from concurrent readers while a 3-replica cluster commits
// writes. Run under -race (the race CI tier does) this is the proof that
// the metrics migration left no unsynchronized reads of event-loop
// state.
func TestMetricsConcurrentReaders(t *testing.T) {
	c := newTestCluster(t, Config{})
	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range c.IDs() {
		rep, ok := c.Replica(id)
		if !ok {
			t.Fatalf("replica %v missing", id)
		}
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_ = rep.Health()
					_ = rep.Metrics().Snapshot()
					_ = rep.Metrics().WritePrometheus(io.Discard)
					// A breath between scrape rounds: the racing reads
					// only need to overlap the commits, not saturate the
					// scheduler. Nine hard-spinning scrapers starve the
					// event loops on a small host until each write takes
					// seconds and this one test blows the package's
					// default -timeout (observed at 647s while the rest
					// of the package summed to ~3s; worse under -race,
					// where the instrumented scrape itself is the spin).
					time.Sleep(time.Millisecond)
				}
			}()
		}
	}

	for i := 0; i < 200; i++ {
		if _, err := cli.Write([]byte("op")); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("write %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	// The load must be visible through the new surfaces: the leader
	// committed waves, mirrored its role, and filled the commit-latency
	// histogram. On a starved host the spinners above keep leadership
	// churning for the whole run, so poll for the post-load leader
	// rather than sampling one instant, and read the wave/latency
	// surfaces from the replica that actually did the committing (the
	// final leader may have been elected after the load drained).
	lead, err := c.WaitForLeader(10 * time.Second)
	if err != nil {
		t.Fatalf("no leader after load: %v", err)
	}
	leadRep, _ := c.Replica(lead)
	h := leadRep.Health()
	if !h.Leading || h.CommitIndex == 0 {
		t.Fatalf("leader health = %+v", h)
	}
	rep := leadRep
	var maxWaves int64
	for _, id := range c.IDs() {
		r, ok := c.Replica(id)
		if !ok {
			continue
		}
		if n := r.Metrics().Value("gridrep_waves_committed_total"); n > maxWaves {
			rep, maxWaves = r, n
		}
	}
	if maxWaves == 0 {
		t.Fatal("no replica registry shows committed waves")
	}
	snap := rep.Metrics().Snapshot()
	m, ok := metrics.Find(snap, "gridrep_quorum_latency_seconds")
	if !ok || m.Hist == nil || m.Hist.Count == 0 {
		t.Fatalf("quorum latency histogram empty: %+v", m)
	}
	var sb strings.Builder
	if err := rep.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gridrep_quorum_latency_seconds_count") {
		t.Fatal("prometheus output missing quorum latency histogram")
	}
}
