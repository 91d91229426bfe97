package failure

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrep/internal/client"
	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/service"
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

func TestSwitchLeader(t *testing.T) {
	c := newCluster(t)
	inj := New(c, 1)
	defer inj.Stop()
	old, _ := c.Leader()
	neu, ok := inj.SwitchLeader(5 * time.Second)
	if !ok || neu == old {
		t.Fatalf("switch failed: new=%v ok=%v", neu, ok)
	}
	rep := inj.Stop()
	if rep.Switches != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestCrashBackupAndRestart(t *testing.T) {
	c := newCluster(t)
	inj := New(c, 1)
	defer inj.Stop()
	leader, _ := c.Leader()
	id, ok := inj.CrashBackup()
	if !ok {
		t.Fatal("no backup to crash")
	}
	if id == leader {
		t.Fatalf("crashed the leader (%v)", id)
	}
	if len(c.Running()) != 2 {
		t.Fatalf("running = %v", c.Running())
	}
	if err := inj.Restart(id); err != nil {
		t.Fatal(err)
	}
	if len(c.Running()) != 3 {
		t.Fatalf("running after restart = %v", c.Running())
	}
	rep := inj.Stop()
	if rep.Crashes != 1 || rep.Restarts != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestCrashLeaderFailsOver(t *testing.T) {
	c := newCluster(t)
	inj := New(c, 1)
	defer inj.Stop()
	old, ok := inj.CrashLeader()
	if !ok {
		t.Fatal("no leader to crash")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if l, ok := c.Leader(); ok && l != old {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no failover")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestLossBurstClears(t *testing.T) {
	c := newCluster(t)
	inj := New(c, 1)
	defer inj.Stop()
	inj.LossBurst(1.0, 50*time.Millisecond)
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// During total loss the request needs retries, but once the burst
	// clears it must succeed.
	if _, err := cli.Write(service.KVPut("k", []byte("v"))); err != nil {
		t.Fatalf("write across loss burst: %v", err)
	}
}

func TestStopIdempotentAndUnstarted(t *testing.T) {
	c := newCluster(t)
	inj := New(c, 1)
	if rep := inj.Stop(); rep != (Report{}) {
		t.Fatalf("unstarted report = %+v", rep)
	}
	inj.Stop() // second stop must not panic
}

// TestSoakExactlyOnceUnderChurn is the headline fault test: clients
// increment a replicated counter while leader switches, crashes,
// restarts, and loss bursts rain down. Every acknowledged increment must
// be applied exactly once, and all replicas must converge to identical
// state.
func TestSoakExactlyOnceUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	c := newCluster(t)
	inj := New(c, 42)
	inj.Start(Plan{
		Every: 150 * time.Millisecond,
		Weights: map[Action]int{
			ActionLeaderSwitch: 3,
			ActionCrashBackup:  2,
			ActionCrashLeader:  1,
			ActionLossBurst:    2,
		},
		RecoverAfter: 100 * time.Millisecond,
		LossProb:     0.25,
		BurstLen:     50 * time.Millisecond,
	})

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
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	rep := inj.Stop()
	t.Logf("injection report: %+v, acked increments: %d", rep, acked.Load())
	if rep.Switches+rep.Crashes == 0 {
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
	verifier, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer verifier.Close()
	res, err := verifier.Read(service.KVGet("ctr"))
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
			var chosen, applied uint64
			rep.Inspect(func(r *core.Replica) {
				snap = r.Service().Snapshot()
				chosen, applied = r.Chosen(), r.Applied()
			})
			if chosen != applied {
				snap = nil // not converged yet
			}
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

// TestLeaderSwitchSensitivity quantifies §3.6: under periodic leader
// switches, open T-Paxos transactions abort while basic-protocol writes
// simply retry and succeed.
func TestLeaderSwitchSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	c := newCluster(t)
	inj := New(c, 7)
	defer inj.Stop()

	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	aborts, commits := 0, 0
	for round := 0; round < 6; round++ {
		tx := cli.Begin()
		_, err := tx.Do(service.KVAdd("x", 1))
		if err == nil {
			// Switch leaders mid-transaction.
			inj.SwitchLeader(5 * time.Second)
			err = tx.Commit()
		}
		if errors.Is(err, client.ErrAborted) {
			aborts++
		} else if err == nil {
			commits++
		} else {
			t.Fatalf("round %d: %v", round, err)
		}
		// Writes always go through across the same disruption.
		if _, err := cli.Write(service.KVAdd("y", 1)); err != nil {
			t.Fatalf("basic write after switch: %v", err)
		}
	}
	t.Logf("transactions: %d aborted, %d committed across 6 leader switches", aborts, commits)
	if aborts == 0 {
		t.Fatal("§3.6 predicts open transactions abort on leader switches; none did")
	}
}
