package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// The basic protocol (§3.3) on the simulator: writes, reads and
// failover on a three-replica KV cluster unless a test says otherwise.

// kvSim boots a KV cluster, waits for its leader, and returns a client.
func kvSim(t *testing.T, seed int64) (*sim, *simClient) {
	s := newSim(t, simConfig{seed: seed})
	s.awaitLeader(time.Second)
	return s, s.newClient()
}

// TestBootElectsSingleStableLeader: Ω's entitlement rule (omega.go) hands
// the boot election to the lowest live replica, so replica 0 leads on
// every seed, and it still leads, alone, twenty election timeouts later.
func TestBootElectsSingleStableLeader(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s := newSim(t, simConfig{seed: seed})
		if lead := s.awaitLeader(time.Second); lead != 0 {
			t.Fatalf("seed %d: replica %d leads, want 0", seed, lead)
		}
		flapped := false
		s.watch = func() {
			for _, n := range s.nodes {
				flapped = flapped || (n.id != 0 && n.r.role != RoleBackup) || !s.nodes[0].r.IsActiveLeader()
			}
		}
		s.runFor(20 * s.nodes[0].r.cfg.ElectionTimeout)
		if flapped {
			t.Fatalf("seed %d: leadership left replica 0", seed)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, c := kvSim(t, 1)
	c.must(wire.KindWrite, service.KVPut("k", []byte("v1")))
	if v, ok := c.get("k"); !ok || v != "v1" {
		t.Fatalf("read = %q,%v", v, ok)
	}
}

// TestReadReflectsLatestWrite is §3.4's consistency requirement: the
// value a read returns reflects the latest update.
func TestReadReflectsLatestWrite(t *testing.T) {
	_, c := kvSim(t, 2)
	for i := 0; i < 20; i++ {
		want := fmt.Sprintf("v%d", i)
		c.must(wire.KindWrite, service.KVPut("k", []byte(want)))
		if v, _ := c.get("k"); v != want {
			t.Fatalf("iteration %d: read %q, want %q", i, v, want)
		}
	}
}

func TestOriginalBaseline(t *testing.T) {
	_, c := kvSim(t, 3)
	c.must(wire.KindOriginal, service.KVPut("k", []byte("v")))
	if v, _ := service.KVReply(c.must(wire.KindOriginal, service.KVGet("k"))); string(v) != "v" {
		t.Fatalf("original read = %q", v)
	}
}

func TestServiceErrorReported(t *testing.T) {
	_, c := kvSim(t, 4)
	if rep := c.call(wire.Request{Kind: wire.KindWrite, Op: []byte{0xFF, 0x00}}, opLimit); rep.Status != wire.StatusError || rep.Err == "" {
		t.Fatalf("malformed op answered %v %q, want a service error", rep.Status, rep.Err)
	}
}

// concurrently starts one closed loop per client, each issuing ops(i)
// in order, and runs until every loop is done; check sees each reply.
func (s *sim) concurrently(clients int, ops func(i int) []wire.Request, check func(i, n int, rep wire.Reply)) {
	s.t.Helper()
	left := clients
	for i := 0; i < clients; i++ {
		c, reqs, n := s.newClient(), ops(i), 0
		var next func()
		next = func() {
			if n == len(reqs) {
				left--
				return
			}
			c.do(reqs[n], func(rep wire.Reply) {
				if rep.Status != wire.StatusOK {
					s.t.Errorf("client %d op %d: %v %s", i, n, rep.Status, rep.Err)
				}
				check(i, n, rep)
				n++
				next()
			})
		}
		next()
	}
	if !s.runUntil(time.Minute, func() bool { return left == 0 }) {
		s.t.Fatalf("%d of %d clients unfinished", left, clients)
	}
}

func TestConcurrentClients(t *testing.T) {
	s, _ := kvSim(t, 5)
	const clients, each = 8, 25
	s.concurrently(clients, func(i int) []wire.Request {
		var reqs []wire.Request
		for j := 0; j < each; j++ {
			reqs = append(reqs, kvAdd(fmt.Sprint("k", i)))
		}
		return append(reqs, wire.Request{Kind: wire.KindRead, Op: service.KVGet(fmt.Sprint("k", i))})
	}, func(i, n int, rep wire.Reply) {
		if got, _ := service.KVInt(rep.Result); n == each && got != each {
			t.Errorf("client %d: counter = %d, want %d", i, got, each)
		}
	})
	s.mustConverge()
}

// brokers gives every replica incarnation its own RNG seed.
func brokers(base int64) func(wire.NodeID, int) service.Service {
	return func(id wire.NodeID, inc int) service.Service {
		return service.NewBroker(base + int64(id)*100 + int64(inc))
	}
}

// TestNondeterministicStateConsistency is the paper's core claim: even
// for a service whose executions are randomized, all replicas end with
// identical state, because the leader's post-execution state — not the
// request — is what consensus decides.
func TestNondeterministicStateConsistency(t *testing.T) {
	s := newSim(t, simConfig{seed: 6, service: brokers(1)})
	s.awaitLeader(time.Second)
	c := s.newClient()
	for i := 0; i < 4; i++ {
		c.must(wire.KindWrite, service.BrokerRegister(fmt.Sprint("res", i), 10))
	}
	total := 0
	for i := 0; i < 10; i++ {
		sel, err := service.BrokerSelection(c.must(wire.KindWrite, service.BrokerRequest(2)))
		if err != nil {
			t.Fatal(err)
		}
		total += len(sel)
	}
	s.mustConverge()
	if total != 20 {
		t.Fatalf("selections lost: %d", total)
	}
	// The replicated state holds the leader's random selections.
	if res, _ := s.nodes[1].r.Service().Execute(service.BrokerList()); inUse(res) != 20 {
		t.Fatalf("a backup's allocation %q does not hold the leader's 20 selections", res)
	}
}

// inUse sums the allocated slots of a BrokerList result.
func inUse(list []byte) (n int) {
	for _, line := range bytes.Split(bytes.TrimSpace(list), []byte("\n")) {
		var name string
		var used, capacity int
		fmt.Sscanf(string(line), "%s %d/%d", &name, &used, &capacity)
		n += used
	}
	return n
}

func TestBackupsAdoptLeaderState(t *testing.T) {
	s, c := kvSim(t, 7)
	for i := 0; i < 10; i++ {
		c.must(wire.KindWrite, service.KVPut(fmt.Sprint("k", i), []byte{byte(i)}))
	}
	s.mustConverge()
}

// TestRetransmitIsIdempotent: 20 % loss on client traffic forces
// retransmits of writes that already committed; KVAdd is not idempotent,
// so exactly-once rests on the leader's reply cache.
func TestRetransmitIsIdempotent(t *testing.T) {
	s, c := kvSim(t, 8)
	s.model.SetLoss(netem.ClassClient, netem.ClassReplica, 0.2)
	s.model.SetLoss(netem.ClassReplica, netem.ClassClient, 0.2)
	const n = 15
	for i := 0; i < n; i++ {
		c.must(wire.KindWrite, service.KVAdd("ctr", 1))
	}
	s.model.SetLoss(netem.ClassClient, netem.ClassReplica, 0)
	s.model.SetLoss(netem.ClassReplica, netem.ClassClient, 0)
	if got := c.counter("ctr"); got != n {
		t.Fatalf("counter = %d, want %d (duplicated or lost execution)", got, n)
	}
}

func TestLeaderFailover(t *testing.T) {
	s, c := kvSim(t, 9)
	c.must(wire.KindWrite, service.KVPut("k", []byte("before")))
	old, _ := s.leader()
	s.crash(old)
	c.must(wire.KindWrite, service.KVPut("k", []byte("after")))
	if v, _ := c.get("k"); v != "after" {
		t.Fatalf("read = %q after failover", v)
	}
	if lead, ok := s.leader(); !ok || lead == old {
		t.Fatalf("leader did not move from %d", old)
	}
}

// TestForcedLeaderSwitch is a §3.6 leader switch forced by suspicion,
// not by a crash: leadership moves within an election timeout, the
// committed state survives, and writes go on.
func TestForcedLeaderSwitch(t *testing.T) {
	s, c := kvSim(t, 16)
	c.must(wire.KindWrite, service.KVPut("k", []byte("v1")))
	old, _ := s.leader()
	s.suspect(old)
	if !s.runUntil(s.nodes[old].r.cfg.ElectionTimeout, func() bool { l, ok := s.leader(); return ok && l != old }) {
		t.Fatalf("leadership did not move from %d after suspicion", old)
	}
	if v, _ := c.get("k"); v != "v1" {
		t.Fatalf("read = %q after the forced switch, want v1", v)
	}
	c.must(wire.KindWrite, service.KVPut("k", []byte("v2")))
	if v, _ := c.get("k"); v != "v2" {
		t.Fatalf("read = %q, want v2", v)
	}
}

func TestFailoverPreservesCommittedState(t *testing.T) {
	s, c := kvSim(t, 10)
	for i := 0; i < 10; i++ {
		c.must(wire.KindWrite, service.KVAdd("ctr", 1))
	}
	old, _ := s.leader()
	s.crash(old)
	if got := c.counter("ctr"); got != 10 {
		t.Fatalf("counter = %d after failover, want 10", got)
	}
}

func TestCrashedReplicaRecoversAndCatchesUp(t *testing.T) {
	s, c := kvSim(t, 11)
	s.crash(2)
	for i := 0; i < 10; i++ {
		c.must(wire.KindWrite, service.KVPut(fmt.Sprint("k", i), []byte("x")))
	}
	s.restart(2)
	s.mustConverge()
}

// TestRecoveredReplicaCanLead: a backup crashes, misses a write, restarts
// and catches up; when the leader then crashes, it — the lowest live
// replica — takes over with the full state.
func TestRecoveredReplicaCanLead(t *testing.T) {
	s, c := kvSim(t, 12)
	c.must(wire.KindWrite, service.KVPut("k", []byte("v")))
	s.crash(1)
	c.must(wire.KindWrite, service.KVPut("k", []byte("v2")))
	s.restart(1)
	s.mustConverge()
	s.crash(0)
	if v, _ := c.get("k"); v != "v2" {
		t.Fatalf("read after recovered-replica failover = %q", v)
	}
	if lead, ok := s.leader(); !ok || lead != 1 {
		t.Fatalf("leader = %v, want recovered replica 1", lead)
	}
}

// TestMinorityCrashTolerated: floor((n-1)/2) = 1 crash of three must not
// block.
func TestMinorityCrashTolerated(t *testing.T) {
	s, c := kvSim(t, 13)
	s.crash(2)
	for i := 0; i < 5; i++ {
		c.must(wire.KindWrite, service.KVAdd("ctr", 1))
	}
	if got := c.counter("ctr"); got != 5 {
		t.Fatalf("counter = %d", got)
	}
}

func TestFiveReplicasTolerateTwoCrashes(t *testing.T) {
	s := newSim(t, simConfig{n: 5, seed: 14})
	s.awaitLeader(time.Second)
	c := s.newClient()
	c.must(wire.KindWrite, service.KVPut("k", []byte("v")))
	s.crash(3)
	s.crash(4)
	c.must(wire.KindWrite, service.KVPut("k", []byte("v2")))
	if v, _ := c.get("k"); v != "v2" {
		t.Fatalf("read = %q", v)
	}
}

func TestSingleReplicaCluster(t *testing.T) {
	s := newSim(t, simConfig{n: 1, seed: 15})
	s.awaitLeader(time.Second)
	c := s.newClient()
	c.must(wire.KindWrite, service.KVPut("k", []byte("v")))
	if v, _ := c.get("k"); v != "v" {
		t.Fatalf("read = %q", v)
	}
}
