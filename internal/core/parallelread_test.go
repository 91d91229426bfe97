package core_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrep/internal/client"
	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// The read pool's tests. They are the one part of internal/core's suite
// that runs on the wall clock, over cluster.New: the pool is goroutines,
// which the simulator (sim_test.go) never starts.

// aBackup returns a running replica that is not the leader.
func aBackup(t *testing.T, c *cluster.Cluster) wire.NodeID {
	t.Helper()
	lead, _ := c.Leader()
	for _, id := range c.Running() {
		if id != lead {
			return id
		}
	}
	t.Fatal("no backup running")
	return 0
}

// readCounters sums gridrep_reads_parallel_total / _inline_total across
// all replicas (only the leader's move, but leadership may migrate).
func readCounters(t *testing.T, c *cluster.Cluster) (parallel, inline int64) {
	t.Helper()
	for _, id := range c.IDs() {
		rep, ok := c.Replica(id)
		if !ok {
			continue
		}
		parallel += rep.Metrics().Value("gridrep_reads_parallel_total")
		inline += rep.Metrics().Value("gridrep_reads_inline_total")
	}
	return
}

// poolCluster builds a 3-replica in-process KV cluster with fast
// timeouts at GOMAXPROCS 4, so every replica starts its parallel read
// pool — which a single processor leaves off — restores the scheduler
// width, and waits for a leader.
func poolCluster(t *testing.T, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	cfg.Service = service.KVFactory
	cfg.HeartbeatInterval = 5 * time.Millisecond
	cfg.ClientRetryEvery = 100 * time.Millisecond
	cfg.ClientDeadline = 10 * time.Second
	procs := runtime.GOMAXPROCS(4)
	c, err := cluster.New(cfg)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestParallelReadPoolEngages starts the read pool whatever the host's
// processor count and checks a read burst against a quiescent leader
// actually dispatches off-loop: the parallel counter moves, and every
// read still sees the committed value.
func TestParallelReadPoolEngages(t *testing.T) {
	c := poolCluster(t, cluster.Config{})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(service.KVPut("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}

	const nReaders, nReads = 4, 25
	var wg sync.WaitGroup
	for r := 0; r < nReaders; r++ {
		rcli, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rcli.Close()
			for i := 0; i < nReads; i++ {
				res, err := rcli.Read(service.KVGet("k"))
				if err != nil {
					t.Error(err)
					return
				}
				if v, found := service.KVReply(res); !found || string(v) != "v" {
					t.Errorf("read %q,%v, want \"v\"", v, found)
					return
				}
			}
		}()
	}
	wg.Wait()
	parallel, inline := readCounters(t, c)
	if parallel == 0 {
		t.Fatalf("no read ever took the pool path (parallel=0, inline=%d)", inline)
	}
	if got := parallel + inline; got < nReaders*nReads {
		t.Fatalf("reads executed = %d, want >= %d", got, nReaders*nReads)
	}
}

// TestParallelReadVsWritesSnapshotsScrapes is the PR 8 race matrix:
// pooled reads racing write commits (which mutate KV state behind the
// pinned views), snapshot rewrites (SnapshotEvery=8 keeps the §3.3
// checkpointer busy), and metrics scrapes, all at once. Meaningful
// chiefly under -race (make multicore-race runs it at GOMAXPROCS=4);
// value correctness is asserted by the linearizability matrix.
func TestParallelReadVsWritesSnapshotsScrapes(t *testing.T) {
	c := poolCluster(t, cluster.Config{Options: core.Options{SnapshotEvery: 8}})
	wcli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer wcli.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // metrics scraper: concurrent registry walks
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, id := range c.IDs() {
				if rep, ok := c.Replica(id); ok {
					rep.Metrics().Snapshot()
				}
			}
			// Yield: an unthrottled scrape loop starves the event loops
			// on a single processor and only slows the test down.
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for r := 0; r < 3; r++ {
		rcli, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rcli.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := rcli.Read(service.KVGet("ctr")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// A near-read client pinned to a backup: the pool serves a
	// non-leader's reads too, against views pinned between the deltas the
	// backup applies.
	near := aBackup(t, c)
	ep, err := c.Net.Endpoint(wire.ClientIDBase + 930)
	if err != nil {
		t.Fatal(err)
	}
	ncli := client.New(client.Config{
		Transport: ep, Replicas: c.IDs(), RetryEvery: 100 * time.Millisecond,
		NearRead: true, NearPin: true, NearReplica: near,
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer ncli.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ncli.Read(service.KVGet("ctr")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 60; i++ { // writer: every commit rewrites state the views pin
		if _, err := wcli.Write(service.KVAdd("ctr", 1)); err != nil {
			t.Fatal(err)
		}
	}
	pooledNear := func() bool {
		rep, ok := c.Replica(near)
		if !ok {
			t.Fatalf("replica %d is not running", near)
		}
		m := rep.Metrics()
		return m.Value("gridrep_reads_near_total") > 0 && m.Value("gridrep_reads_parallel_total") > 0
	}
	for deadline := time.Now().Add(5 * time.Second); !pooledNear() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if !pooledNear() {
		t.Fatal("the pinned backup never served a near read from its pool")
	}
}

// TestReadLinearizabilityMulticore reruns the linearizability bracket
// with the parallel read pool started, then run across GOMAXPROCS {1,4}:
// the off-loop read path must preserve exactly the §3.4 contract the
// inline path gives, regardless of scheduler width.
func TestReadLinearizabilityMulticore(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			c := poolCluster(t, cluster.Config{})
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			readLinearizability(t, c)
		})
	}
}

// readLinearizability brackets every read of a counter one writer
// increments between two bounds from the writer's history:
//
//	completed-before-read-start <= read value <= started-before-read-end
//
// which is linearizability for a register that only increments; each
// reader's view must also never go backwards.
func readLinearizability(t *testing.T, c *cluster.Cluster) {
	wcli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer wcli.Close()

	var started, completed atomic.Int64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; i < 80; i++ {
			started.Add(1)
			if _, err := wcli.Write(service.KVAdd("ctr", 1)); err != nil {
				t.Error(err)
				return
			}
			completed.Add(1)
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rcli, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rcli.Close()
			prev := int64(-1)
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				lower := completed.Load()
				res, err := rcli.Read(service.KVGet("ctr"))
				if err != nil {
					t.Error(err)
					return
				}
				got, _ := service.KVInt(res)
				if upper := started.Load(); got < lower || got > upper || got < prev {
					t.Errorf("read %d outside [%d, %d] or below this reader's previous %d", got, lower, upper, prev)
				}
				prev = got
			}
		}()
	}
	wg.Wait()
}
