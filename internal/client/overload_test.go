package client

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gridrep/internal/wire"
)

// TestClientHonorsRetryAfter: a StatusOverload shed reschedules the
// next rebroadcast to the gateway's typed hint instead of the jittered
// exponential backoff, and the operation still completes when the
// replica has room on the retry.
func TestClientHonorsRetryAfter(t *testing.T) {
	net := newClientNet(t)
	var mu sync.Mutex
	var times []time.Time
	startFake(t, net, 0, func(req wire.Request, send func(wire.Reply)) {
		mu.Lock()
		n := len(times)
		times = append(times, time.Now())
		mu.Unlock()
		if n == 0 {
			// First transmission: shed with a hint far below the client's
			// RetryEvery (30ms in newTestClient) — if the hint is honored
			// the retry arrives well before the backoff would fire.
			send(wire.Reply{Status: wire.StatusOverload, RetryAfterMS: 5})
			return
		}
		send(wire.Reply{Status: wire.StatusOK, Result: []byte("r")})
	})
	cli := newTestClient(t, net, []wire.NodeID{0})
	// Widen the base backoff so hint-vs-backoff is unambiguous.
	cli.cfg.RetryEvery = 200 * time.Millisecond
	cli.cfg.RetryMax = 400 * time.Millisecond

	res, err := cli.Write([]byte("op"))
	if err != nil || string(res) != "r" {
		t.Fatalf("write = %q, %v", res, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(times) < 2 {
		t.Fatalf("saw %d transmissions, want 2", len(times))
	}
	if gap := times[1].Sub(times[0]); gap > 100*time.Millisecond {
		t.Fatalf("retry after %v; the 5ms hint was not honored", gap)
	}
}

// TestClientOverloadedAtDeadline: when every transmission is shed, the
// operation fails with the typed ErrOverloaded, not a generic timeout.
func TestClientOverloadedAtDeadline(t *testing.T) {
	net := newClientNet(t)
	startFake(t, net, 0, func(req wire.Request, send func(wire.Reply)) {
		send(wire.Reply{Status: wire.StatusOverload, RetryAfterMS: 10})
	})
	cli := newTestClient(t, net, []wire.NodeID{0})
	_, err := cli.Write([]byte("op"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
}

// TestClientOverloadKeepsWaitingForLeader: a follower-side shed must
// not abort the wait — the leader's OK, arriving later, wins.
func TestClientOverloadKeepsWaitingForLeader(t *testing.T) {
	net := newClientNet(t)
	startFake(t, net, 1, func(req wire.Request, send func(wire.Reply)) {
		send(wire.Reply{Status: wire.StatusOverload, RetryAfterMS: 400})
	})
	startFake(t, net, 0, func(req wire.Request, send func(wire.Reply)) {
		time.Sleep(20 * time.Millisecond) // the shed arrives first
		send(wire.Reply{Status: wire.StatusOK, Result: []byte("real")})
	})
	cli := newTestClient(t, net, []wire.NodeID{0, 1})
	res, err := cli.Write([]byte("op"))
	if err != nil || string(res) != "real" {
		t.Fatalf("write = %q, %v", res, err)
	}
}

// TestClientStopsRetryingOnTerminalStatus: Aborted and Error replies
// end the operation immediately — no further rebroadcast reaches the
// replica.
func TestClientStopsRetryingOnTerminalStatus(t *testing.T) {
	for _, tc := range []struct {
		status wire.ReplyStatus
		check  func(error) bool
	}{
		{wire.StatusAborted, func(err error) bool { return errors.Is(err, ErrAborted) }},
		{wire.StatusError, func(err error) bool { var se *ServiceError; return errors.As(err, &se) }},
	} {
		net := newClientNet(t)
		var mu sync.Mutex
		sends := 0
		startFake(t, net, 0, func(req wire.Request, send func(wire.Reply)) {
			mu.Lock()
			sends++
			mu.Unlock()
			send(wire.Reply{Status: tc.status, Err: "x"})
		})
		cli := newTestClient(t, net, []wire.NodeID{0})
		cli.cfg.RetryEvery = 10 * time.Millisecond
		cli.cfg.RetryMax = 20 * time.Millisecond
		if _, err := cli.Write([]byte("op")); !tc.check(err) {
			t.Fatalf("status %v mapped to %v", tc.status, err)
		}
		// The property is silence AFTER the terminal reply was seen. A
		// scheduling hiccup can delay the reply past RetryEvery and
		// produce one legitimate pre-reply retransmit, so let any such
		// in-flight transmission land, take a baseline, then require
		// that a full retry interval passes with no further send — a
		// retry loop that wrongly survived the terminal status would
		// fire within RetryMax.
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		before := sends
		mu.Unlock()
		time.Sleep(60 * time.Millisecond)
		mu.Lock()
		n := sends
		mu.Unlock()
		if n != before {
			t.Fatalf("status %v: replica saw %d transmissions after the terminal reply (baseline %d) — terminal statuses must stop the retry loop", tc.status, n-before, before)
		}
	}
}
