package cluster

import (
	"testing"
	"time"

	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/wire"
)

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 5 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestDefaults(t *testing.T) {
	c := newTestCluster(t, Config{})
	if len(c.IDs()) != 3 {
		t.Fatalf("default N = %d, want 3", len(c.IDs()))
	}
	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDerivedTimeouts(t *testing.T) {
	cfg := Config{Profile: netem.WAN(0)}
	cfg.fillDefaults()
	// WAN one-way is 45ms; the heartbeat interval must comfortably
	// exceed it so Ω is stable, and retries must exceed an RTT.
	if cfg.HeartbeatInterval < 2*netem.WAN(0).MaxOneWay {
		t.Fatalf("heartbeat %v too aggressive for WAN", cfg.HeartbeatInterval)
	}
	if cfg.RetryTimeout < 2*netem.WAN(0).MaxOneWay {
		t.Fatalf("retry %v below one RTT", cfg.RetryTimeout)
	}
	if cfg.ElectionTimeout <= cfg.HeartbeatInterval {
		t.Fatal("election timeout must exceed the heartbeat interval")
	}
}

func TestRunningAndReplicaAccessors(t *testing.T) {
	c := newTestCluster(t, Config{})
	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.Running(); len(got) != 3 {
		t.Fatalf("Running = %v", got)
	}
	if _, ok := c.Replica(1); !ok {
		t.Fatal("Replica(1) missing")
	}
	if _, ok := c.Replica(99); ok {
		t.Fatal("Replica(99) exists")
	}
	c.Crash(1)
	if got := c.Running(); len(got) != 2 {
		t.Fatalf("Running after crash = %v", got)
	}
	if _, ok := c.Replica(1); ok {
		t.Fatal("crashed replica still returned")
	}
}

func TestRestartErrors(t *testing.T) {
	c := newTestCluster(t, Config{})
	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(0); err == nil {
		t.Fatal("restarting a running replica must fail")
	}
	c.Crash(0)
	if err := c.Restart(0); err != nil {
		t.Fatalf("restart after crash: %v", err)
	}
}

func TestClientsGetDistinctIDs(t *testing.T) {
	c := newTestCluster(t, Config{})
	a, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.ID() == b.ID() {
		t.Fatal("clients share an ID")
	}
	if !a.ID().IsClient() || !b.ID().IsClient() {
		t.Fatal("client IDs outside the client space")
	}
}

func TestCloseIdempotent(t *testing.T) {
	c := newTestCluster(t, Config{})
	c.Close()
	c.Close()
}

func TestServiceFactoryPerReplica(t *testing.T) {
	instances := 0
	c := newTestCluster(t, Config{Service: func() service.Service {
		instances++
		return service.NewNoop()
	}})
	_ = c
	if instances != 3 {
		t.Fatalf("factory called %d times, want once per replica", instances)
	}
}

func TestStoresRetainedAcrossRestart(t *testing.T) {
	c := newTestCluster(t, Config{Service: service.KVFactory})
	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(service.KVPut("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	// Crash and restart a backup; its store (and thus promise state)
	// must be the same object.
	leader, _ := c.Leader()
	var backup wire.NodeID
	for _, id := range c.IDs() {
		if id != leader {
			backup = id
			break
		}
	}
	st, _ := c.Store(backup)
	c.Crash(backup)
	if err := c.Restart(backup); err != nil {
		t.Fatal(err)
	}
	if now, _ := c.Store(backup); now != st {
		t.Fatal("restart replaced the stable store")
	}
}

func TestSuspectLeaderNoLeaderIsNoop(t *testing.T) {
	c := newTestCluster(t, Config{})
	// Before any leader exists, SuspectLeader must not panic.
	c.SuspectLeader()
}
