package core_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/service"
)

// TestReadLinearizability brackets every X-Paxos read of a monotonic
// counter between two bounds derived from the writer's history:
//
//	completed-before-read-start <= read value <= started-before-read-end
//
// which is exactly linearizability for a register that only increments.
// Violating the lower bound is a stale read (the §3.4 consistency
// requirement: "the value ... must reflect the latest update");
// violating the upper bound would mean reading an increment that was
// never issued.
//
// The suite runs over PipelineDepth {1,4} × NoBatch {false,true}: the
// speculative pipeline must not weaken the read contract — a reply (read
// or write) may only expose state whose every instance is committed,
// never a speculative suffix.
func TestReadLinearizability(t *testing.T) {
	for _, depth := range []int{1, 4} {
		for _, noBatch := range []bool{false, true} {
			t.Run(fmt.Sprintf("depth=%d,nobatch=%v", depth, noBatch), func(t *testing.T) {
				readLinearizability(t, newCluster(t, cluster.Config{
					Service: service.KVFactory,
					Options: core.Options{
						PipelineDepth: depth,
						NoBatch:       noBatch,
					},
				}))
			})
		}
	}
}

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

	const nReaders = 3
	var wg sync.WaitGroup
	errs := make(chan error, nReaders)
	for r := 0; r < nReaders; r++ {
		rcli, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rcli.Close()
			var prev int64 = -1
			for {
				select {
				case <-writerDone:
					errs <- nil
					return
				default:
				}
				lower := completed.Load()
				res, err := rcli.Read(service.KVGet("ctr"))
				if err != nil {
					errs <- err
					return
				}
				upper := started.Load()
				got, _ := service.KVInt(res)
				if got < lower {
					t.Errorf("stale read: %d < %d completed writes", got, lower)
				}
				if got > upper {
					t.Errorf("phantom read: %d > %d started writes", got, upper)
				}
				// Session monotonicity: this reader's view never goes
				// backwards.
				if got < prev {
					t.Errorf("non-monotonic reads: %d after %d", got, prev)
				}
				prev = got
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
