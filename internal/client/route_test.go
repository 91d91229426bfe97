package client

import (
	"reflect"
	"testing"
	"time"

	"gridrep/internal/wire"
)

// clusterTransport is a fake three-replica cluster that answers inline:
// answer decides the reply to each copy a replica receives (nil drops
// the copy), and sent records every copy's destination until take
// returns it.
type clusterTransport struct {
	inbox  chan *wire.Envelope
	answer func(to wire.NodeID, req wire.Request) *wire.Reply
	sent   []wire.NodeID
}

func newClusterTransport(answer func(to wire.NodeID, req wire.Request) *wire.Reply) *clusterTransport {
	return &clusterTransport{inbox: make(chan *wire.Envelope, 64), answer: answer}
}

func (f *clusterTransport) Local() wire.NodeID { return wire.ClientIDBase + 8 }

func (f *clusterTransport) Send(env *wire.Envelope) {
	req := env.Msg.(*wire.RequestMsg).Req
	f.sent = append(f.sent, env.To)
	if rep := f.answer(env.To, req); rep != nil {
		rep.Client, rep.Seq = req.Client, req.Seq
		f.inbox <- &wire.Envelope{From: env.To, To: req.Client, Msg: &wire.ReplyMsg{Rep: *rep}}
	}
}

func (f *clusterTransport) Recv() <-chan *wire.Envelope { return f.inbox }
func (f *clusterTransport) Close() error                { return nil }

// take returns the destinations sent since the last take.
func (f *clusterTransport) take() []wire.NodeID {
	s := f.sent
	f.sent = nil
	return s
}

// leaderAnswers answers only copies that reach leader, with StatusOK
// stamped with stamp as the leader hint.
func leaderAnswers(leader, stamp wire.NodeID) func(wire.NodeID, wire.Request) *wire.Reply {
	return func(to wire.NodeID, req wire.Request) *wire.Reply {
		if to != leader {
			return nil
		}
		return &wire.Reply{Status: wire.StatusOK, Leader: stamp}
	}
}

var (
	all3     = []wire.NodeID{0, 1, 2}
	toLeader = []wire.NodeID{1}
)

func newFakeClusterClient(t *testing.T, tr *clusterTransport, routed bool, retryEvery time.Duration) *Client {
	t.Helper()
	cfg := Config{Transport: tr, Replicas: all3, RetryEvery: retryEvery, Deadline: 10 * time.Second}
	build := New
	if routed {
		build = NewRouted
	}
	c := build(cfg)
	t.Cleanup(c.Close)
	return c
}

// expectSent fails unless the last operation's copies went to want.
func expectSent(t *testing.T, tr *clusterTransport, what string, want []wire.NodeID) {
	t.Helper()
	if got := tr.take(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s sent to %v, want %v", what, got, want)
	}
}

// TestRoutedClientSendsNonReadsToLeader: a routed client broadcasts its
// first request, then sends each write, original and transaction
// request to the replica that answered alone, while every read still
// goes to all three. A client built with New broadcasts everything.
func TestRoutedClientSendsNonReadsToLeader(t *testing.T) {
	for _, routed := range []bool{false, true} {
		tr := newClusterTransport(leaderAnswers(1, 1))
		c := newFakeClusterClient(t, tr, routed, time.Hour)
		later := all3
		if routed {
			later = toLeader
		}
		steps := []struct {
			what string
			do   func() error
			want []wire.NodeID
		}{
			{"first write", func() error { _, err := c.Write(nil); return err }, all3},
			{"second write", func() error { _, err := c.Write(nil); return err }, later},
			{"read", func() error { _, err := c.Read(nil); return err }, all3},
			{"write after a read", func() error { _, err := c.Write(nil); return err }, later},
			{"original", func() error { _, err := c.Original(nil); return err }, later},
			{"txn op", func() error { _, err := c.Begin().Do(nil); return err }, later},
			{"txn commit", func() error { return c.Begin().Commit() }, later},
			{"txn abort", func() error { tx := c.Begin(); tx.Do(nil); tr.take(); return tx.Abort() }, later},
		}
		for _, st := range steps {
			if err := st.do(); err != nil {
				t.Fatalf("routed=%v %s: %v", routed, st.what, err)
			}
			expectSent(t, tr, st.what, st.want)
		}
	}
}

// TestRoutedClientRebroadcastForgetsHint: when the hinted replica stays
// silent, the retry timer's rebroadcast goes to all three replicas with
// the hint already forgotten, and a reply stamped with no member sets
// no new one, so the next write is broadcast too.
func TestRoutedClientRebroadcastForgetsHint(t *testing.T) {
	tr := newClusterTransport(leaderAnswers(1, 1))
	c := newFakeClusterClient(t, tr, true, 50*time.Millisecond)
	if _, err := c.Write(nil); err != nil {
		t.Fatal(err)
	}
	tr.take()

	// Replica 1 dies; replica 2 answers, stamped with a non-member.
	var hintedAtRebroadcast []bool
	tr.answer = func(to wire.NodeID, req wire.Request) *wire.Reply {
		if len(tr.sent) > 1 {
			hintedAtRebroadcast = append(hintedAtRebroadcast, c.hinted)
		}
		return leaderAnswers(2, 9)(to, req)
	}
	if _, err := c.Write(nil); err != nil {
		t.Fatal(err)
	}
	expectSent(t, tr, "write to a silent leader", []wire.NodeID{1, 0, 1, 2})
	if !reflect.DeepEqual(hintedAtRebroadcast, []bool{false, false, false}) {
		t.Fatalf("client hinted at its rebroadcast copies: %v", hintedAtRebroadcast)
	}

	tr.answer = leaderAnswers(2, 2)
	if _, err := c.Write(nil); err != nil {
		t.Fatal(err)
	}
	expectSent(t, tr, "write after the rebroadcast", all3)
	if _, err := c.Write(nil); err != nil {
		t.Fatal(err)
	}
	expectSent(t, tr, "write to the new leader", []wire.NodeID{2})
}

// TestRoutedClientNotLeaderRebroadcastsAtOnce: a StatusNotLeader to a
// routed write rebroadcasts it at once, long before the retry timer
// (an hour here) could fire, and the write completes at the new leader.
func TestRoutedClientNotLeaderRebroadcastsAtOnce(t *testing.T) {
	tr := newClusterTransport(leaderAnswers(1, 1))
	c := newFakeClusterClient(t, tr, true, time.Hour)
	if _, err := c.Write(nil); err != nil {
		t.Fatal(err)
	}
	tr.take()

	// Replica 1 steps down: it answers "leader switch", replica 2 leads.
	tr.answer = func(to wire.NodeID, req wire.Request) *wire.Reply {
		if to == 1 {
			return &wire.Reply{Status: wire.StatusNotLeader, Leader: 1}
		}
		return leaderAnswers(2, 2)(to, req)
	}
	done := make(chan error, 1)
	go func() { _, err := c.Write(nil); done <- err }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write waited for the retry timer after StatusNotLeader")
	}
	expectSent(t, tr, "write to a stepped-down leader", []wire.NodeID{1, 0, 1, 2})
	if _, err := c.Write(nil); err != nil {
		t.Fatal(err)
	}
	expectSent(t, tr, "write to the new leader", []wire.NodeID{2})
}

// TestRoutedClientIgnoresNonMemberLeader: a Reply.Leader outside
// Replicas sets no hint, so the next write is broadcast rather than
// sent to a node the client does not know.
func TestRoutedClientIgnoresNonMemberLeader(t *testing.T) {
	tr := newClusterTransport(leaderAnswers(1, 7))
	c := newFakeClusterClient(t, tr, true, time.Hour)
	for i := 0; i < 2; i++ {
		if _, err := c.Write(nil); err != nil {
			t.Fatal(err)
		}
		expectSent(t, tr, "write answered with a non-member leader", all3)
	}
	if c.hinted {
		t.Fatalf("hint set to non-member %d", c.leader)
	}
}

// TestRoutedClientOverloadRebroadcasts: a StatusOverload to a routed
// write arms the timer with its retry-after, and the rebroadcast that
// follows goes to every replica.
func TestRoutedClientOverloadRebroadcasts(t *testing.T) {
	tr := newClusterTransport(leaderAnswers(1, 1))
	c := newFakeClusterClient(t, tr, true, time.Hour)
	if _, err := c.Write(nil); err != nil {
		t.Fatal(err)
	}
	tr.take()

	shed := true
	tr.answer = func(to wire.NodeID, req wire.Request) *wire.Reply {
		if to == 1 && shed {
			shed = false
			return &wire.Reply{Status: wire.StatusOverload, RetryAfterMS: 1}
		}
		return leaderAnswers(1, 1)(to, req)
	}
	if _, err := c.Write(nil); err != nil {
		t.Fatal(err)
	}
	expectSent(t, tr, "shed write", []wire.NodeID{1, 0, 1, 2})
	if _, err := c.Write(nil); err != nil {
		t.Fatal(err)
	}
	expectSent(t, tr, "write after the shed", toLeader)
}
