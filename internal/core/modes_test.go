package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

// modeCluster builds a KV cluster forced into a specific state mode.
func modeCluster(t *testing.T, mode core.StateMode) *cluster.Cluster {
	t.Helper()
	return newCluster(t, cluster.Config{
		Service: service.KVFactory,
		Options: core.Options{StateMode: mode},
	})
}

// TestStateModesEquivalent drives the identical workload through all
// three state-transfer modes and requires identical replicated state —
// §3.3's point that the reductions change bytes on the wire, not
// semantics.
func TestStateModesEquivalent(t *testing.T) {
	var finals [][]byte
	for _, mode := range []core.StateMode{core.StateModeFull, core.StateModeDelta} {
		c := modeCluster(t, mode)
		cli, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := cli.Write(service.KVPut(fmt.Sprintf("k%d", i%3), []byte{byte(i)})); err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if _, err := cli.Write(service.KVAdd("ctr", 2)); err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
		}
		waitConverged(t, c)
		snaps := snapshotAll(t, c)
		for i, s := range snaps {
			if !bytes.Equal(s, snaps[0]) {
				t.Fatalf("%v: replica #%d diverged", mode, i)
			}
		}
		finals = append(finals, snaps[0])
		cli.Close()
	}
	if !bytes.Equal(finals[0], finals[1]) {
		t.Fatal("full and delta modes produced different final states")
	}
}

func TestDeltaModeBackupsFollow(t *testing.T) {
	c := modeCluster(t, core.StateModeDelta)
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 20; i++ {
		if _, err := cli.Write(service.KVAdd("n", 1)); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, c)
	for _, id := range c.IDs() {
		rep, _ := c.Replica(id)
		var snap []byte
		rep.Inspect(func(r *core.Replica) { snap = r.Service().Snapshot() })
		kv := service.NewKV()
		if err := kv.Restore(snap); err != nil {
			t.Fatal(err)
		}
		res, _ := kv.Execute(service.KVGet("n"))
		if n, _ := service.KVInt(res); n != 20 {
			t.Fatalf("replica %v: n = %d, want 20", id, n)
		}
	}
}

func TestDeltaModeFailover(t *testing.T) {
	c := modeCluster(t, core.StateModeDelta)
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 10; i++ {
		if _, err := cli.Write(service.KVAdd("n", 1)); err != nil {
			t.Fatal(err)
		}
	}
	old, _ := c.Leader()
	c.Crash(old)
	if _, err := cli.Write(service.KVAdd("n", 1)); err != nil {
		t.Fatalf("delta-mode write after failover: %v", err)
	}
	res, err := cli.Read(service.KVGet("n"))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := service.KVInt(res); n != 11 {
		t.Fatalf("n = %d after delta-mode failover, want 11", n)
	}
}

func TestDeltaModeTransactions(t *testing.T) {
	// A transaction commits as one delta, its write set; interleave
	// transactions with delta writes and verify consistency.
	c := modeCluster(t, core.StateModeDelta)
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(service.KVAdd("n", 1)); err != nil {
		t.Fatal(err)
	}
	tx := cli.Begin()
	if _, err := tx.Do(service.KVAdd("t", 5)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write(service.KVAdd("n", 1)); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c)
	snaps := snapshotAll(t, c)
	for i, s := range snaps {
		if !bytes.Equal(s, snaps[0]) {
			t.Fatalf("replica #%d diverged mixing txns into delta mode", i)
		}
	}
}

// TestReplayModeBroker covers the §3.3 "request plus additional
// information" path end to end: backups re-execute the randomized broker
// deterministically from the leader's captured selections.
func TestReplayModeBroker(t *testing.T) {
	seed := int64(0)
	c := newCluster(t, cluster.Config{
		Options: core.Options{StateMode: core.StateModeReplay},
		Service: func() service.Service {
			seed++
			return service.NewBroker(seed)
		},
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 3; i++ {
		if _, err := cli.Write(service.BrokerRegister(fmt.Sprintf("r%d", i), 10)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := cli.Write(service.BrokerRequest(2)); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, c)
	snaps := snapshotAll(t, c)
	for i, s := range snaps {
		if !bytes.Equal(s, snaps[0]) {
			t.Fatalf("replica #%d diverged in replay mode", i)
		}
	}
}

func TestReplayModeFailoverKeepsSelections(t *testing.T) {
	seed := int64(50)
	c := newCluster(t, cluster.Config{
		Options: core.Options{StateMode: core.StateModeReplay},
		Service: func() service.Service {
			seed++
			return service.NewBroker(seed)
		},
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(service.BrokerRegister("a", 10)); err != nil {
		t.Fatal(err)
	}
	res, err := cli.Write(service.BrokerRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := service.BrokerSelection(res)
	old, _ := c.Leader()
	c.Crash(old)
	list, err := cli.Read(service.BrokerList())
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("a %d/10\n", len(sel))
	if string(list) != want {
		t.Fatalf("allocation after replay-mode failover = %q, want %q", list, want)
	}
}

func TestReplayModeSchedDurable(t *testing.T) {
	// Scheduler in replay mode across crash-recovery with file storage:
	// dispatch decisions survive a full cluster restart.
	stores := map[wire.NodeID]storage.Store{}
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		st, err := storage.OpenFile(fmt.Sprintf("%s/r%d.wal", dir, i))
		if err != nil {
			t.Fatal(err)
		}
		st.Sync = false
		stores[wire.NodeID(i)] = st
	}
	c := newCluster(t, cluster.Config{
		Options: core.Options{StateMode: core.StateModeReplay},
		Service: func() service.Service { return service.NewSched() },
		Stores:  stores,
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Write(service.SchedSubmit("j1", 1))
	cli.Write(service.SchedSubmit("j2", 9))
	picked, err := cli.Write(service.SchedDispatch())
	if err != nil {
		t.Fatal(err)
	}
	if string(picked) != "j2" {
		t.Fatalf("dispatched %q", picked)
	}
	// Crash and recover a backup; it must rebuild the schedule by
	// replaying from its WAL + catch-up.
	c.Crash(2)
	cli.Write(service.SchedSubmit("j3", 5))
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c)
	snaps := snapshotAll(t, c)
	for i, s := range snaps {
		if !bytes.Equal(s, snaps[0]) {
			t.Fatalf("replica #%d schedule diverged", i)
		}
	}
}

func TestModeMismatchRejected(t *testing.T) {
	// Forcing a mode the service cannot support must fail at
	// construction, not corrupt state later.
	_, err := core.New(core.Config{
		ID:        0,
		Peers:     []wire.NodeID{0},
		Service:   service.NewNoop(),
		Options:   core.Options{StateMode: core.StateModeDelta},
		Transport: nopTransport{},
	})
	if err == nil {
		t.Fatal("delta mode accepted for a non-Differ service")
	}
	_, err = core.New(core.Config{
		ID:        0,
		Peers:     []wire.NodeID{0},
		Service:   service.NewNoop(),
		Options:   core.Options{StateMode: core.StateModeReplay},
		Transport: nopTransport{},
	})
	if err == nil {
		t.Fatal("replay mode accepted for a non-Replayer service")
	}
}

type nopTransport struct{}

func (nopTransport) Local() wire.NodeID          { return 0 }
func (nopTransport) Send(*wire.Envelope)         {}
func (nopTransport) Recv() <-chan *wire.Envelope { return nil }
func (nopTransport) Close() error                { return nil }

var _ = time.Now // keep time imported for helpers
