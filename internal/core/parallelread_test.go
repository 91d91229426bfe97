package core_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gridrep/internal/client"
	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/service"
	"gridrep/internal/wire"
)

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

// TestParallelReadPoolEngages forces the read pool on (the 1-CPU CI
// host would otherwise auto-disable it) and checks a read burst against
// a quiescent leader actually dispatches off-loop: the parallel counter
// moves, and every read still sees the committed value.
func TestParallelReadPoolEngages(t *testing.T) {
	c := newCluster(t, cluster.Config{Service: service.KVFactory, Options: core.Options{ReadConcurrency: 4}})
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
	c := newCluster(t, cluster.Config{
		Service: service.KVFactory,
		Options: core.Options{
			ReadConcurrency: 4,
			SnapshotEvery:   8,
		},
	})
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
	lead, _ := c.Leader()
	ep, err := c.Net.Endpoint(wire.ClientIDBase + 930)
	if err != nil {
		t.Fatal(err)
	}
	ncli := client.New(client.Config{
		Transport: ep, Replicas: c.IDs(), RetryEvery: 100 * time.Millisecond,
		NearRead: true, NearPin: true, NearReplica: others(c, lead)[0],
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
		m := replica(t, c, others(c, lead)[0]).Metrics()
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
// with the parallel read pool forced on, across GOMAXPROCS {1,4}: the
// off-loop read path must preserve exactly the §3.4 contract the inline
// path gives, regardless of scheduler width.
func TestReadLinearizabilityMulticore(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			readLinearizability(t, cluster.Config{
				Service: service.KVFactory,
				Options: core.Options{ReadConcurrency: 4},
			})
		})
	}
}
