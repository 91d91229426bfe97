package main

import (
	"testing"
	"time"

	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/gateway"
)

// testCluster is a three-replica in-process cluster, behind gateways
// when gw is set.
func testCluster(t *testing.T, gw *gateway.Config) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Options:          core.Options{HeartbeatInterval: 5 * time.Millisecond},
		ClientRetryEvery: 200 * time.Millisecond,
		ClientDeadline:   10 * time.Second,
		Gateway:          gw,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMeasureOpenLoopUnderCapacity: at a modest target rate with no
// gateway, everything offered completes and the accounting identity
// holds.
func TestMeasureOpenLoopUnderCapacity(t *testing.T) {
	c := testCluster(t, nil)
	p, err := measureOpenLoop(c, openLoopConfig{
		Rate:     200,
		Duration: 500 * time.Millisecond,
		Workers:  16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Offered == 0 || p.OKs == 0 {
		t.Fatalf("no work done: %+v", p)
	}
	if got := p.OKs + p.Sheds + p.Timeouts + p.Errors + p.Unserved; got != p.Offered {
		t.Fatalf("outcomes %d do not account for %d offered: %+v", got, p.Offered, p)
	}
	if p.GoodputPerSec <= 0 || p.LatP50MS <= 0 {
		t.Fatalf("missing goodput/latency: %+v", p)
	}
	if p.Sheds != 0 {
		t.Fatalf("sheds with no gateway: %+v", p)
	}
}

// TestMeasureOpenLoopShedsPastBudget: a gateway with a tiny admission
// budget facing far more offered load than it will admit must shed, and
// the sheds must surface as typed outcomes rather than timeouts.
func TestMeasureOpenLoopShedsPastBudget(t *testing.T) {
	c := testCluster(t, &gateway.Config{
		MaxInFlight: 1,
		QueueLen:    1,
	})
	p, err := measureOpenLoop(c, openLoopConfig{
		Rate:     2000,
		Duration: 500 * time.Millisecond,
		Workers:  32,
		Deadline: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.OKs + p.Sheds + p.Timeouts + p.Errors + p.Unserved; got != p.Offered {
		t.Fatalf("outcomes %d do not account for %d offered: %+v", got, p.Offered, p)
	}
	if p.Sheds == 0 {
		t.Fatalf("a 1-slot gateway at 2000/s shed nothing: %+v", p)
	}
	if p.Errors > 0 {
		t.Fatalf("unexpected hard errors: %+v", p)
	}
}

// TestMeasureThroughput: the closed-loop saturation point is a positive
// rate.
func TestMeasureThroughput(t *testing.T) {
	c := testCluster(t, nil)
	tp, err := measureThroughput(c, 4, 80)
	if err != nil {
		t.Fatal(err)
	}
	if tp <= 0 {
		t.Fatalf("throughput = %v", tp)
	}
}
