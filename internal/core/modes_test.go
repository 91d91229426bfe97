package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// The three state-transfer modes of §3.3: full state, a delta
// (service.Differ), and the request plus what its execution captured
// (service.Replayer).

// plainKV is a KV behind the bare service.Service interface: like a
// user's service that implements neither Differ nor Replayer, it runs in
// full mode, where the KV itself runs in delta mode.
func plainKV(wire.NodeID, int) service.Service { return struct{ service.Service }{service.NewKV()} }

// TestStateModesEquivalent drives one workload through full and delta
// mode and requires identical replicated state — §3.3's point that the
// reductions change bytes on the wire, not semantics.
func TestStateModesEquivalent(t *testing.T) {
	var finals [][]byte
	for _, mode := range []struct {
		mode    stateMode
		service func(wire.NodeID, int) service.Service
	}{{stateFull, plainKV}, {stateDelta, nil}} {
		s := newSim(t, simConfig{seed: 31, service: mode.service})
		lead := s.awaitLeader(time.Second)
		if m := s.nodes[lead].r.mode; m != mode.mode {
			t.Fatalf("mode %d, want %d", m, mode.mode)
		}
		c := s.newClient()
		for i := 0; i < 10; i++ {
			c.must(wire.KindWrite, service.KVPut(fmt.Sprint("k", i%3), []byte{byte(i)}))
			c.must(wire.KindWrite, service.KVAdd("ctr", 2))
		}
		s.mustConverge()
		finals = append(finals, s.nodes[0].r.Service().Snapshot())
	}
	if !bytes.Equal(finals[0], finals[1]) {
		t.Fatal("full and delta modes produced different final states")
	}
}

func TestDeltaModeBackupsFollow(t *testing.T) {
	s, c := kvSim(t, 32)
	for i := 0; i < 20; i++ {
		c.must(wire.KindWrite, service.KVAdd("n", 1))
	}
	s.mustConverge()
	for _, n := range s.nodes {
		res, _ := n.r.Service().Execute(service.KVGet("n"))
		if got, _ := service.KVInt(res); got != 20 {
			t.Fatalf("replica %d: n = %d, want 20", n.id, got)
		}
	}
}

func TestDeltaModeFailover(t *testing.T) {
	s, c := kvSim(t, 33)
	for i := 0; i < 10; i++ {
		c.must(wire.KindWrite, service.KVAdd("n", 1))
	}
	old, _ := s.leader()
	s.crash(old)
	c.must(wire.KindWrite, service.KVAdd("n", 1))
	if got := c.counter("n"); got != 11 {
		t.Fatalf("n = %d after delta-mode failover, want 11", got)
	}
}

// TestDeltaModeTransactions: a transaction commits as one delta, its
// write set, between plain delta writes.
func TestDeltaModeTransactions(t *testing.T) {
	s, c := kvSim(t, 34)
	c.must(wire.KindWrite, service.KVAdd("n", 1))
	tx := c.begin()
	if rep := tx.do(service.KVAdd("t", 5)); rep.Status != wire.StatusOK {
		t.Fatalf("txn op: %v", rep.Status)
	}
	if rep := tx.commit(); rep.Status != wire.StatusOK {
		t.Fatalf("commit: %v", rep.Status)
	}
	c.must(wire.KindWrite, service.KVAdd("n", 1))
	s.mustConverge()
	if n, t5 := c.counter("n"), c.counter("t"); n != 2 || t5 != 5 {
		t.Fatalf("n = %d, t = %d, want 2 and 5", n, t5)
	}
}

// TestReplayModeBroker is §3.3's "request plus additional information":
// backups re-execute the randomized broker deterministically from the
// leader's captured selections.
func TestReplayModeBroker(t *testing.T) {
	s := newSim(t, simConfig{seed: 35, service: brokers(1)})
	if lead := s.awaitLeader(time.Second); s.nodes[lead].r.mode != stateReplay {
		t.Fatalf("mode %d, want replay", s.nodes[lead].r.mode)
	}
	c := s.newClient()
	for i := 0; i < 3; i++ {
		c.must(wire.KindWrite, service.BrokerRegister(fmt.Sprint("r", i), 10))
	}
	for i := 0; i < 10; i++ {
		c.must(wire.KindWrite, service.BrokerRequest(2))
	}
	s.mustConverge()
}

func TestReplayModeFailoverKeepsSelections(t *testing.T) {
	s := newSim(t, simConfig{seed: 36, service: brokers(51)})
	s.awaitLeader(time.Second)
	c := s.newClient()
	c.must(wire.KindWrite, service.BrokerRegister("a", 10))
	sel, _ := service.BrokerSelection(c.must(wire.KindWrite, service.BrokerRequest(3)))
	old, _ := s.leader()
	s.crash(old)
	if list, want := c.must(wire.KindRead, service.BrokerList()), fmt.Sprintf("a %d/10\n", len(sel)); string(list) != want {
		t.Fatalf("allocation after replay-mode failover = %q, want %q", list, want)
	}
}

// TestReplayModeSchedDurable: the scheduler in replay mode across a
// backup's crash and recovery from its store — its unflushed records
// lost — and then a restart of the whole cluster: the dispatch decisions
// survive both.
func TestReplayModeSchedDurable(t *testing.T) {
	s := newSim(t, simConfig{seed: 37, service: func(wire.NodeID, int) service.Service { return service.NewSched() }})
	s.awaitLeader(time.Second)
	c := s.newClient()
	c.must(wire.KindWrite, service.SchedSubmit("j1", 1))
	c.must(wire.KindWrite, service.SchedSubmit("j2", 9))
	if picked := c.must(wire.KindWrite, service.SchedDispatch()); string(picked) != "j2" {
		t.Fatalf("dispatched %q", picked)
	}
	s.crash(2)
	c.must(wire.KindWrite, service.SchedSubmit("j3", 5))
	s.restart(2)
	s.mustConverge()
	want := s.nodes[0].r.Service().Snapshot()
	for _, n := range s.nodes {
		s.crash(n.id)
	}
	for _, n := range s.nodes {
		s.restart(n.id)
	}
	s.awaitLeader(time.Second)
	s.mustConverge()
	if !bytes.Equal(s.nodes[0].r.Service().Snapshot(), want) {
		t.Fatal("the schedule changed across a full restart")
	}
	if picked := c.must(wire.KindWrite, service.SchedDispatch()); string(picked) != "j3" {
		t.Fatalf("dispatched %q after the restart, want j3", picked)
	}
}
