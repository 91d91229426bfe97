package core_test

import (
	"testing"
	"time"

	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/service"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// rawClient is a bare client endpoint that sends hand-built requests to
// chosen replicas: the schedules below need a read to reach one replica
// now and the others later, which the real client's broadcast cannot do.
type rawClient struct{ ep *transport.Endpoint }

func newRawClient(t *testing.T, c *cluster.Cluster, n wire.NodeID) *rawClient {
	t.Helper()
	ep, err := c.Net.Endpoint(wire.ClientIDBase + n)
	if err != nil {
		t.Fatal(err)
	}
	return &rawClient{ep: ep}
}

func (rc *rawClient) request(seq uint64, kind wire.RequestKind, op []byte) wire.Request {
	return wire.Request{Client: rc.ep.Local(), Seq: seq, Kind: kind, Op: op}
}

func (rc *rawClient) send(req wire.Request, to ...wire.NodeID) {
	for _, id := range to {
		rc.ep.Send(&wire.Envelope{To: id, Msg: &wire.RequestMsg{Req: req}})
	}
}

// await returns the next reply to seq, or false after the timeout.
func (rc *rawClient) await(seq uint64, timeout time.Duration) (wire.Reply, bool) {
	deadline := time.After(timeout)
	for {
		select {
		case env := <-rc.ep.Recv():
			if rm, ok := env.Msg.(*wire.ReplyMsg); ok && rm.Rep.Seq == seq {
				return rm.Rep, true
			}
		case <-deadline:
			return wire.Reply{}, false
		}
	}
}

// readState reads a replica's pending-read table and held-confirm buffer
// sizes on its event loop.
func readState(t *testing.T, c *cluster.Cluster, id wire.NodeID) (pending, held int) {
	t.Helper()
	replica(t, c, id).Inspect(func(r *core.Replica) { pending, held = r.ReadState() })
	return
}

func others(c *cluster.Cluster, not wire.NodeID) []wire.NodeID {
	var out []wire.NodeID
	for _, id := range c.IDs() {
		if id != not {
			out = append(out, id)
		}
	}
	return out
}

func isActiveLeader(t *testing.T, c *cluster.Cluster, id wire.NodeID) (active bool) {
	t.Helper()
	replica(t, c, id).Inspect(func(r *core.Replica) { active = r.IsActiveLeader() })
	return
}

// TestServedReadsLeaveNoHeldConfirms: on three replicas every read is
// served by the leader's own vote plus the first confirm, so the second
// confirm arrives for a read that no longer exists and is held as if it
// had outrun its request. Those must age out with the sweep, not sit in
// the buffer — and count against its cap — for the rest of the term.
func TestServedReadsLeaveNoHeldConfirms(t *testing.T) {
	c, cli := newKVCluster(t)
	if _, err := cli.Write(service.KVPut("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := cli.Read(service.KVGet("k")); err != nil {
			t.Fatal(err)
		}
	}
	lead, _ := c.Leader()
	// Two sweep periods (40 ms each here) retire any held confirm.
	waitFor(t, "the leader's late confirms to age out", func() bool {
		pending, held := readState(t, c, lead)
		return pending == 0 && held == 0
	})
}

// TestAbandonedLeaderReadExpires: a read that reached only the leader —
// so no backup ever confirms it — from a client that never retries must
// not live in the pending table until the next step-down. The sweep
// expires it after ElectionTimeout and tells the client to retry.
func TestAbandonedLeaderReadExpires(t *testing.T) {
	c, _ := newKVCluster(t)
	lead, _ := c.Leader()
	rc := newRawClient(t, c, 910)
	rc.send(rc.request(1, wire.KindRead, service.KVGet("k")), lead)
	rep, ok := rc.await(1, 5*time.Second)
	if !ok {
		pending, _ := readState(t, c, lead)
		t.Fatalf("no reply to a read whose quorum cannot complete (%d still pending)", pending)
	}
	if rep.Status != wire.StatusNotLeader {
		t.Fatalf("reply status %v, want NotLeader", rep.Status)
	}
	if pending, _ := readState(t, c, lead); pending != 0 {
		t.Fatalf("%d reads still pending after expiry", pending)
	}
	if !isActiveLeader(t, c, lead) {
		t.Fatal("the leader stepped down: the read was answered by demotion, not by the sweep")
	}
}

// waitFor polls cond (every millisecond, for up to five seconds).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waitRegistered waits until replica id is serving exactly one read.
func waitRegistered(t *testing.T, c *cluster.Cluster, id wire.NodeID) {
	t.Helper()
	waitFor(t, "the read to register", func() bool {
		pending, _ := readState(t, c, id)
		return pending == 1
	})
}

// seamCluster is a KV cluster holding one acknowledged overwrite, so
// that a stale answer is distinguishable from the right one.
func seamCluster(t *testing.T, opts core.Options) *cluster.Cluster {
	t.Helper()
	opts.HeartbeatInterval = 50 * time.Millisecond
	c := newCluster(t, cluster.Config{Service: service.KVFactory, Options: opts})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for _, v := range []string{"stale", "fresh"} {
		if _, err := cli.Write(service.KVPut("k", []byte(v))); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// nearReadAcrossElection produces the schedule behind seams (a) and (b):
// a read stamped Near = X reaches X alone while X is a backup — so it
// registers with only X's own vote — and X then wins leadership and
// activates with the read still pending. The leader is crashed and X is
// the survivor Ω will entitle; the read is sent most of the way into the
// detection window, because detection and read expiry both take one
// ElectionTimeout and the read must outlive the election comfortably.
func nearReadAcrossElection(t *testing.T, seq uint64) (*cluster.Cluster, *rawClient, wire.NodeID) {
	t.Helper()
	const electionTimeout = time.Second
	c := seamCluster(t, core.Options{ElectionTimeout: electionTimeout})
	rc := newRawClient(t, c, 911)
	old, _ := c.Leader()
	x := others(c, old)[0] // lowest surviving ID: the one Ω entitles
	c.Crash(old)
	time.Sleep(electionTimeout * 6 / 10)

	req := rc.request(seq, wire.KindRead, service.KVGet("k"))
	req.Near, req.NearSet = x, true
	rc.send(req, x)
	waitRegistered(t, c, x)
	if isActiveLeader(t, c, x) {
		t.Fatal("X already leads: the read did not register at a backup")
	}
	waitFor(t, "X to win leadership", func() bool { return isActiveLeader(t, c, x) })
	if pending, _ := readState(t, c, x); pending != 1 {
		t.Fatal("the near read did not survive its server's election")
	}
	return c, rc, x
}

func wantValue(t *testing.T, rep wire.Reply, want string) {
	t.Helper()
	if rep.Status != wire.StatusOK {
		t.Fatalf("reply status %v (%s), want OK", rep.Status, rep.Err)
	}
	if v, _ := service.KVReply(rep.Result); string(v) != want {
		t.Fatalf("read returned %q, want %q", v, want)
	}
}

// TestNearReadSurvivesServerWinningLeadership is seam (a): the read
// registers with a backup's horizon and completes on evidence only a
// leader may count. It must be served exactly once, with the
// acknowledged value.
func TestNearReadSurvivesServerWinningLeadership(t *testing.T) {
	const seq = 1
	c, rc, x := nearReadAcrossElection(t, seq)

	// The rest of the client's broadcast arrives: the surviving backup
	// vouches to X, now the active leader of the ballot it promised.
	req := rc.request(seq, wire.KindRead, service.KVGet("k"))
	req.Near, req.NearSet = x, true
	rc.send(req, others(c, x)...)
	rep, ok := rc.await(seq, 5*time.Second)
	if !ok {
		t.Fatal("near read never answered after its server won leadership")
	}
	wantValue(t, rep, "fresh")
	if rep.Leader != x {
		t.Fatalf("read answered by %d, want its near replica %d", rep.Leader, x)
	}
	if dup, ok := rc.await(seq, 100*time.Millisecond); ok {
		t.Fatalf("read answered twice; second reply %+v", dup)
	}
}

// TestNearReadAnsweredNotLeaderOnDemotion is seam (b): step-down answers
// every pending read, near ones included, and the client's unstamped
// rebroadcast then succeeds on the leader path.
func TestNearReadAnsweredNotLeaderOnDemotion(t *testing.T) {
	const seq = 1
	c, rc, x := nearReadAcrossElection(t, seq)

	// A candidate's prepare at a higher ballot deposes X.
	var bal wire.Ballot
	replica(t, c, x).Inspect(func(r *core.Replica) { bal = r.Ballot() })
	rc.ep.Send(&wire.Envelope{To: x, Msg: &wire.Prepare{Bal: wire.Ballot{Round: bal.Round + 1, Node: others(c, x)[0]}}})
	rep, ok := rc.await(seq, 5*time.Second)
	if !ok {
		t.Fatal("pending near read got no answer when its server was demoted")
	}
	if rep.Status != wire.StatusNotLeader || rep.Leader != x || rep.Err != "leader switch" {
		t.Fatalf("reply %+v, want NotLeader (leader switch) from %d", rep, x)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		rc.send(rc.request(seq, wire.KindRead, service.KVGet("k")), c.IDs()...)
		if rep, ok := rc.await(seq, 200*time.Millisecond); ok && rep.Status == wire.StatusOK {
			wantValue(t, rep, "fresh")
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("rebroadcast of the demoted near read never succeeded on the leader path")
		}
	}
}

// TestNearReadAtLeaderHeldUntilExecTopCommits is seam (d): a near read
// whose gates clear at an active leader while a wave launched after it
// is still in flight executes against that wave's speculative state, so
// its reply must wait for the wave to commit.
func TestNearReadAtLeaderHeldUntilExecTopCommits(t *testing.T) {
	c := seamCluster(t, core.Options{RetryTimeout: 50 * time.Millisecond})
	lead, _ := c.Leader()
	rep := replica(t, c, lead)
	rc := newRawClient(t, c, 913)

	read := rc.request(1, wire.KindRead, service.KVGet("k"))
	read.Near, read.NearSet = lead, true
	rc.send(read, lead) // registers with the leader's own vote only
	waitRegistered(t, c, lead)

	// A write the leader executes and proposes but cannot commit.
	backups := others(c, lead)
	for _, b := range backups {
		c.Net.Model().Cut(lead, b)
	}
	rc.send(rc.request(2, wire.KindWrite, service.KVPut("k", []byte("speculative"))), lead)
	waitFor(t, "the wave to launch", func() bool { return rep.Metrics().Value("gridrep_waves_in_flight") > 0 })

	// The backup's confirm, as it would have arrived: quorum complete,
	// barrier long committed — only the execution point is not.
	var bal wire.Ballot
	var before uint64
	rep.Inspect(func(r *core.Replica) { bal, before = r.Ballot(), r.Chosen() })
	rc.ep.Send(&wire.Envelope{To: lead, Msg: &wire.Confirm{Bal: bal, From: backups[0], Reads: []wire.Key{read.Key()}}})
	if early, ok := rc.await(1, 60*time.Millisecond); ok {
		t.Fatalf("read answered (%+v) while the wave it executed against was uncommitted", early)
	}

	for _, b := range backups {
		c.Net.Model().Heal(lead, b)
	}
	got, ok := rc.await(1, 5*time.Second)
	if !ok {
		t.Fatal("held read never released after its execution point committed")
	}
	wantValue(t, got, "speculative")
	var after uint64
	rep.Inspect(func(r *core.Replica) { after = r.Chosen() })
	if after <= before {
		t.Fatalf("read released at commit index %d, not past %d where it executed", after, before)
	}
}

// TestReadHeldWhileExclusiveTxnOpen: a serialized service executes a
// transaction's operations directly against its live state, so a read
// whose quorum completes while such a transaction is open must wait for
// it to finish — even one that registered before the transaction began
// (reads arriving later are parked at registration). Answering from the
// live state would expose effects that an abort then erases.
func TestReadHeldWhileExclusiveTxnOpen(t *testing.T) {
	seed := int64(300)
	c := newCluster(t, cluster.Config{
		Service: func() service.Service { seed++; return service.NewBroker(seed) },
		Options: core.Options{HeartbeatInterval: 50 * time.Millisecond},
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(service.BrokerRegister("n1", 10)); err != nil {
		t.Fatal(err)
	}
	lead, _ := c.Leader()
	rc := newRawClient(t, c, 914)
	read := rc.request(1, wire.KindRead, service.BrokerList())
	rc.send(read, lead) // registers with the leader's own vote only
	waitRegistered(t, c, lead)

	tx := cli.Begin()
	if _, err := tx.Do(service.BrokerRequest(3)); err != nil {
		t.Fatal(err)
	}
	var bal wire.Ballot
	replica(t, c, lead).Inspect(func(r *core.Replica) { bal = r.Ballot() })
	rc.ep.Send(&wire.Envelope{To: lead, Msg: &wire.Confirm{Bal: bal, From: others(c, lead)[0], Reads: []wire.Key{read.Key()}}})
	if dirty, ok := rc.await(1, 60*time.Millisecond); ok {
		t.Fatalf("read answered %q while an exclusive transaction held uncommitted state", dirty.Result)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	rep, ok := rc.await(1, 5*time.Second)
	if !ok {
		t.Fatal("held read never released after the transaction finished")
	}
	if rep.Status != wire.StatusOK || string(rep.Result) != "n1 0/10\n" {
		t.Fatalf("read returned %v %q, want the state the abort restored", rep.Status, rep.Result)
	}
}
