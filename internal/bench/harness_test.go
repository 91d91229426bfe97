package bench

import (
	"testing"
	"time"

	"gridrep/internal/cluster"
	"gridrep/internal/core"
)

func loopbackCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Options:          core.Options{HeartbeatInterval: 5 * time.Millisecond},
		ClientRetryEvery: 200 * time.Millisecond,
		ClientDeadline:   10 * time.Second,
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

func TestMeasureRRTAllClasses(t *testing.T) {
	c := loopbackCluster(t)
	for _, class := range []ReqClass{ClassOriginal, ClassRead, ClassWrite} {
		s, err := MeasureRRT(c, class, 10)
		if err != nil {
			t.Fatalf("%v: %v", class, err)
		}
		if s.N != 10 || s.Mean <= 0 {
			t.Fatalf("%v: stats %+v", class, s)
		}
	}
}

func TestMeasureThroughput(t *testing.T) {
	c := loopbackCluster(t)
	tp, err := MeasureThroughput(c, ClassWrite, 4, 80)
	if err != nil {
		t.Fatal(err)
	}
	if tp <= 0 {
		t.Fatalf("throughput = %v", tp)
	}
}

func TestMeasureTxnRTAllModes(t *testing.T) {
	c := loopbackCluster(t)
	for _, mode := range []TxnMode{TxnReadWrite, TxnWriteOnly, TxnOptimized} {
		s, err := MeasureTxnRT(c, mode, 3, 5)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if s.N != 5 || s.Mean <= 0 {
			t.Fatalf("%v: stats %+v", mode, s)
		}
	}
}

func TestMeasureTxnThroughput(t *testing.T) {
	c := loopbackCluster(t)
	tp, err := MeasureTxnThroughput(c, TxnOptimized, 3, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tp <= 0 {
		t.Fatalf("txn throughput = %v", tp)
	}
}

func TestSeries(t *testing.T) {
	c := loopbackCluster(t)
	pts, err := Series(c, ClassOriginal, []int{1, 2}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Clients != 1 || pts[1].Clients != 2 {
		t.Fatalf("series = %+v", pts)
	}
	for _, p := range pts {
		if p.PerSecond <= 0 {
			t.Fatalf("point %+v", p)
		}
	}
}

func TestTxnSeries(t *testing.T) {
	c := loopbackCluster(t)
	pts, err := TxnSeries(c, TxnOptimized, 3, []int{1, 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("series = %+v", pts)
	}
}

// TestLatencyOrderingLoopback checks the paper's fundamental ordering on
// a uniform-latency network: original <= read <= write in the mean.
func TestLatencyOrderingLoopback(t *testing.T) {
	c := loopbackCluster(t)
	orig, err := MeasureRRT(c, ClassOriginal, 40)
	if err != nil {
		t.Fatal(err)
	}
	read, err := MeasureRRT(c, ClassRead, 40)
	if err != nil {
		t.Fatal(err)
	}
	write, err := MeasureRRT(c, ClassWrite, 40)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("loopback RRT: original=%.3fms read=%.3fms write=%.3fms", orig.Mean, read.Mean, write.Mean)
	// Require the structural ordering, with a noise allowance: on
	// loopback the three 40-sample means sit within tens of
	// microseconds of each other, so a single scheduling hiccup in one
	// series can invert the raw means without any protocol regression.
	slack := 0.25*orig.Mean + 0.05 // ms
	if write.Mean < orig.Mean-slack {
		t.Errorf("write (%.3f) should not beat original (%.3f) beyond noise (slack %.3f)", write.Mean, orig.Mean, slack)
	}
	if write.Mean < read.Mean-slack {
		t.Errorf("write (%.3f) should not beat read (%.3f) beyond noise (slack %.3f)", write.Mean, read.Mean, slack)
	}
}

// TestShardedThroughputSpreadsGroups: on a sharded cluster the default
// keyed write ops land on more than one consensus group — the property
// that makes the sharded fig6 variant measure scale-out rather than a
// single hot group.
func TestShardedThroughputSpreadsGroups(t *testing.T) {
	const groups = 4
	c, err := cluster.New(cluster.Config{
		Groups:           groups,
		Options:          core.Options{HeartbeatInterval: 5 * time.Millisecond},
		ClientRetryEvery: 200 * time.Millisecond,
		ClientDeadline:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.WaitForAllLeaders(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	tp, err := MeasureThroughputPoint(c, ClassWrite, 8, 160)
	if err != nil {
		t.Fatal(err)
	}
	if tp.PerSecond <= 0 {
		t.Fatalf("throughput = %+v", tp)
	}
	progressed := 0
	for g := 0; g < groups; g++ {
		rep, ok := c.GroupReplica(0, g)
		if !ok {
			t.Fatalf("group %d replica missing", g)
		}
		if rep.Health().CommitIndex > 0 {
			progressed++
		}
	}
	if progressed < 2 {
		t.Fatalf("only %d groups committed anything; keyed ops are not spreading", progressed)
	}
}
