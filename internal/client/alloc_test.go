package client

import (
	"testing"
	"time"

	"gridrep/internal/wire"
)

// echoTransport answers every request to the leader at once with one
// prebuilt reply, and keeps nothing it is sent: a transport that costs
// no allocation, so a request's allocations are the client's own.
type echoTransport struct {
	leader wire.NodeID
	reply  wire.Envelope
	msg    wire.ReplyMsg
	inbox  chan *wire.Envelope
	sent   int
}

func newEchoTransport(leader wire.NodeID) *echoTransport {
	e := &echoTransport{leader: leader, inbox: make(chan *wire.Envelope, 1)}
	e.msg.Rep = wire.Reply{Status: wire.StatusOK, Leader: leader, Result: []byte("ok")}
	e.reply = wire.Envelope{Msg: &e.msg}
	return e
}

func (e *echoTransport) Local() wire.NodeID { return wire.ClientIDBase + 7 }

func (e *echoTransport) Send(env *wire.Envelope) {
	e.sent++
	if env.To != e.leader {
		return
	}
	e.msg.Rep.Seq = env.Msg.(*wire.RequestMsg).Req.Seq
	e.inbox <- &e.reply
}

func (e *echoTransport) Recv() <-chan *wire.Envelope { return e.inbox }
func (e *echoTransport) Close() error                { return nil }

// TestRequestAllocs fences the client's request path: a write broadcast
// to three replicas and answered allocates nothing once the client's
// retry timer exists — the timer is reused, and every broadcast sends
// one reused envelope and message.
func TestRequestAllocs(t *testing.T) {
	tr := newEchoTransport(1)
	c := New(Config{Transport: tr, Replicas: []wire.NodeID{0, 1, 2}, RetryEvery: time.Second})
	defer c.Close()
	op := []byte("op")
	if _, err := c.Write(op); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Write(op); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per request, want 0", allocs)
	}
	if tr.sent != 3*102 {
		t.Fatalf("%d sends for 102 requests to 3 replicas", tr.sent)
	}
}

// TestRoutedRequestAllocs is TestRequestAllocs for a routed client:
// after the first request, broadcast, each write is one send to the
// leader that answered, and the routed send allocates nothing either.
func TestRoutedRequestAllocs(t *testing.T) {
	tr := newEchoTransport(1)
	c := NewRouted(Config{Transport: tr, Replicas: []wire.NodeID{0, 1, 2}, RetryEvery: time.Second})
	defer c.Close()
	op := []byte("op")
	if _, err := c.Write(op); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Write(op); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per request, want 0", allocs)
	}
	if tr.sent != 3+101 {
		t.Fatalf("%d sends for 102 requests, want 3 for the first and 1 for each after", tr.sent)
	}
}
