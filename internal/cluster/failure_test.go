package cluster_test

// The wall-clock fault tests: the test itself injects faults into an
// assembled in-process cluster (cluster.New) — crashes and restarts,
// §3.6 leader switches, client loss bursts and replica link cuts — while
// real goroutines and timers run. The protocol's own fault schedules run
// exactly on core's simulator (DESIGN.md §20); these add the assembled
// cluster, under the race detector in make race.

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrep/internal/client"
	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/wire"
)

func newCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Service:          service.KVFactory,
		Options:          core.Options{HeartbeatInterval: 5 * time.Millisecond},
		ClientRetryEvery: 50 * time.Millisecond,
		ClientDeadline:   20 * time.Second,
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

func newClient(t *testing.T, c *cluster.Cluster) *client.Client {
	t.Helper()
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// awaitNewLeader waits until a replica other than old actively leads.
func awaitNewLeader(t *testing.T, c *cluster.Cluster, old wire.NodeID) wire.NodeID {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if l, ok := c.Leader(); ok && l != old {
			return l
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("leadership did not move from %v", old)
	return 0
}

// clientLoss sets the loss probability between clients and replicas,
// both ways.
func clientLoss(m *netem.Model, p float64) {
	m.SetLoss(netem.ClassClient, netem.ClassReplica, p)
	m.SetLoss(netem.ClassReplica, netem.ClassClient, p)
}

func TestSwitchLeader(t *testing.T) {
	c := newCluster(t)
	old, _ := c.Leader()
	c.SuspectLeader()
	awaitNewLeader(t, c, old)
}

func TestCrashBackupAndRestart(t *testing.T) {
	c := newCluster(t)
	leader, _ := c.Leader()
	backup := (leader + 1) % 3
	c.Crash(backup)
	if got := c.Running(); len(got) != 2 || slices.Contains(got, backup) {
		t.Fatalf("running = %v after crashing %v", got, backup)
	}
	// The two survivors are a majority.
	if _, err := newClient(t, c).Write(service.KVPut("k", []byte("v"))); err != nil {
		t.Fatalf("write with a backup down: %v", err)
	}
	if err := c.Restart(backup); err != nil {
		t.Fatal(err)
	}
	if got := c.Running(); len(got) != 3 {
		t.Fatalf("running = %v after restart", got)
	}
	if err := c.Restart(backup); err == nil {
		t.Fatal("restarting a running replica succeeded")
	}
}

func TestCrashLeaderFailsOver(t *testing.T) {
	c := newCluster(t)
	old, _ := c.Leader()
	c.Crash(old)
	awaitNewLeader(t, c, old)
}

// TestLossBurstClears: during total client loss a write needs retries,
// but once the burst clears it must succeed.
func TestLossBurstClears(t *testing.T) {
	c := newCluster(t)
	cli := newClient(t, c)
	m := c.Net.Model()
	clientLoss(m, 1)
	time.AfterFunc(50*time.Millisecond, func() { clientLoss(m, 0) })
	if _, err := cli.Write(service.KVPut("k", []byte("v"))); err != nil {
		t.Fatalf("write across loss burst: %v", err)
	}
}

// TestLinkInjectorBackground cuts one seeded-random replica link every
// 5 ms, healing the previous one, while a client writes for 100 ms: at
// most one link is down at a time, so every write must complete.
func TestLinkInjectorBackground(t *testing.T) {
	c := newCluster(t)
	cli := newClient(t, c)
	m := c.Net.Model()
	links := [][2]wire.NodeID{{0, 1}, {0, 2}, {1, 2}}
	stop, cuts := make(chan struct{}), make(chan int)
	go func() {
		rng, n, cut := rand.New(rand.NewSource(42)), 0, links[0]
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				m.Heal(cut[0], cut[1])
				cuts <- n
				return
			case <-tick.C:
			}
			m.Heal(cut[0], cut[1])
			cut = links[rng.Intn(len(links))]
			m.Cut(cut[0], cut[1])
			n++
		}
	}()
	writes := 0
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); writes++ {
		if _, err := cli.Write(service.KVAdd("ctr", 1)); err != nil {
			close(stop)
			t.Fatalf("write %d under link cuts: %v", writes, err)
		}
	}
	close(stop)
	if n := <-cuts; n == 0 {
		t.Fatal("the background loop cut no link")
	}
	res, err := cli.Read(service.KVGet("ctr"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := service.KVInt(res); got != int64(writes) {
		t.Fatalf("counter = %d after %d acknowledged writes", got, writes)
	}
}

// faults tallies what churn injected.
type faults struct{ switches, crashes, restarts, bursts int }

// churn injects one seeded fault every 150 ms until stop is closed — a
// leader switch, a backup crash, a leader crash or a 25 % client loss
// burst, weighted 3:2:1:2 as TestSimChurn weights them — restarting a
// crashed replica 100 ms later and clearing a burst after 50 ms. It sends
// the tally once stop is closed.
func churn(c *cluster.Cluster, seed int64, stop <-chan struct{}) <-chan faults {
	done := make(chan faults, 1)
	go func() {
		rng, m := rand.New(rand.NewSource(seed)), c.Net.Model()
		var n faults
		down := map[wire.NodeID]int{} // crashed replica → ticks left until its restart
		crash := func(id wire.NodeID) {
			c.Crash(id)
			down[id] = 2
			n.crashes++
		}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for k := 1; ; k++ {
			select {
			case <-stop:
				clientLoss(m, 0)
				done <- n
				return
			case <-tick.C:
			}
			clientLoss(m, 0)
			for id := range down {
				if down[id]--; down[id] == 0 {
					delete(down, id)
					if c.Restart(id) == nil {
						n.restarts++
					}
				}
			}
			if k%3 != 0 {
				continue
			}
			leader, ok := c.Leader()
			switch pick := rng.Intn(8); {
			case pick < 3:
				c.SuspectLeader()
				n.switches++
			case pick < 5:
				var backups []wire.NodeID
				for _, id := range c.Running() {
					if !ok || id != leader {
						backups = append(backups, id)
					}
				}
				if len(backups) > 0 {
					crash(backups[rng.Intn(len(backups))])
				}
			case pick < 6:
				if ok {
					crash(leader)
				}
			default:
				clientLoss(m, 0.25)
				n.bursts++
			}
		}
	}()
	return done
}

// TestSoakExactlyOnceUnderChurn is the headline wall-clock fault test:
// clients increment a replicated counter while leader switches, crashes,
// restarts and loss bursts rain down. Every acknowledged increment must
// be applied exactly once, and all replicas must converge to identical
// state.
func TestSoakExactlyOnceUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	c := newCluster(t)
	stop := make(chan struct{})
	tally := churn(c, 42, stop)

	const nClients = 4
	var acked atomic.Int64
	var wg sync.WaitGroup
	stopAt := time.Now().Add(3 * time.Second)
	errCh := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		cli, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cli *client.Client) {
			defer wg.Done()
			defer cli.Close()
			for time.Now().Before(stopAt) {
				_, err := cli.Write(service.KVAdd("ctr", 1))
				switch {
				case err == nil:
					acked.Add(1)
				case errors.Is(err, client.ErrTimeout):
					// The increment may or may not have committed; a
					// timed-out client must stop counting on it. Keep
					// the invariant checkable by not reusing this
					// client (its retransmit could still land).
					errCh <- nil
					return
				default:
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(cli)
	}
	wg.Wait()
	close(stop)
	rep := <-tally
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("injected %+v, acked increments: %d", rep, acked.Load())
	if rep.switches+rep.crashes == 0 {
		t.Fatal("soak ran without injecting anything")
	}

	// Ensure everyone is back and converged.
	for _, id := range c.IDs() {
		if _, ok := c.Replica(id); !ok {
			if err := c.Restart(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.WaitForLeader(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := newClient(t, c).Read(service.KVGet("ctr"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := service.KVInt(res)
	// Exactly-once: the counter must be at least every acknowledged
	// increment (acks are binding) and no duplicates may inflate it
	// beyond acked + the bounded number of in-flight timeouts (at most
	// one per client).
	if got < acked.Load() {
		t.Fatalf("counter %d < %d acknowledged increments: lost writes", got, acked.Load())
	}
	if got > acked.Load()+nClients {
		t.Fatalf("counter %d > %d+%d: duplicated writes", got, acked.Load(), nClients)
	}

	// All replicas converge to identical state.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var snaps [][]byte
		for _, id := range c.IDs() {
			rep, ok := c.Replica(id)
			if !ok {
				continue
			}
			var snap []byte
			rep.Inspect(func(r *core.Replica) {
				if r.Chosen() == r.Applied() {
					snap = r.Service().Snapshot()
				}
			})
			snaps = append(snaps, snap)
		}
		same := len(snaps) == 3
		for _, s := range snaps {
			if s == nil || !bytes.Equal(s, snaps[0]) {
				same = false
			}
		}
		if same {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas did not reconverge after churn")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
