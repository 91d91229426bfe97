package gridrep_test

import (
	"testing"
	"time"

	"gridrep"
	"gridrep/internal/gateway"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// TestTCPIdempotentRetryAcrossLeaderCrash is the satellite-3 acceptance
// scenario: a client retransmitting one request with a fixed (client,
// seq) identity across a leader crash — over real sockets, real WALs,
// and with the gateway's dedup window in front — must see the request
// applied exactly once, and no acked write may be lost.
//
// A raw transport endpoint (not the library client) controls the wire
// identity directly, so the test can replay the exact same sequence
// number as many times as it wants.
func TestTCPIdempotentRetryAcrossLeaderCrash(t *testing.T) {
	dir := t.TempDir()
	ids := []gridrep.NodeID{0, 1, 2}
	peers := reservePorts(t, ids)
	srvs := make(map[gridrep.NodeID]*gridrep.Server, len(ids))
	for _, id := range ids {
		srvs[id] = startKVServer(t, dir, id, peers, &gridrep.GatewayOptions{})
	}
	t.Cleanup(func() {
		for _, s := range srvs {
			s.Close()
		}
	})

	// Session-addressed identity (tenant 3, session 42), exercising the
	// same ID space DialMux sessions live in.
	cid := gateway.SessionID(3, 42)
	ep := transport.DialTCP(cid, peers)
	defer ep.Close()

	send := func(seq uint64, op []byte) {
		for id := range peers {
			ep.Send(&wire.Envelope{To: id, Msg: &wire.RequestMsg{
				Req: wire.Request{Client: cid, Seq: seq, Kind: wire.KindWrite, Op: op},
			}})
		}
	}
	// await retransmits seq (same identity, same op) until a leader acks
	// it — the protocol's own recovery discipline for lost requests and
	// dead leaders.
	await := func(seq uint64, op []byte, within time.Duration) wire.Reply {
		t.Helper()
		deadline := time.Now().Add(within)
		resend := time.NewTicker(300 * time.Millisecond)
		defer resend.Stop()
		for {
			select {
			case env, ok := <-ep.Recv():
				if !ok {
					t.Fatal("client endpoint closed")
				}
				rm, isRep := env.Msg.(*wire.ReplyMsg)
				if !isRep || rm.Rep.Seq != seq {
					continue
				}
				switch rm.Rep.Status {
				case wire.StatusOK:
					return rm.Rep
				case wire.StatusNotLeader, wire.StatusOverload:
					continue // keep retransmitting
				default:
					t.Fatalf("seq %d: unexpected status %v (%s)", seq, rm.Rep.Status, rm.Rep.Err)
				}
			case <-resend.C:
				send(seq, op)
			}
			if time.Now().After(deadline) {
				t.Fatalf("seq %d never acked", seq)
			}
		}
	}

	add := gridrep.KVAdd("ctr", 1)

	// Phase 1 — acked, then crash, then replay. The increment is acked by
	// the first leader; after it dies, retransmitting the same seq must
	// be answered from the new leader's log-rebuilt reply cache, not
	// re-executed.
	send(1, add)
	await(1, add, 20*time.Second)
	leader1 := tcpLeader(t, srvs, 10*time.Second)
	srvs[leader1].Close()
	delete(srvs, leader1)
	tcpLeader(t, srvs, 20*time.Second) // survivors re-elect

	send(1, add)
	await(1, add, 20*time.Second)

	got := await(2, gridrep.KVGet("ctr"), 20*time.Second)
	if v, ok := gridrep.KVInt(got.Result); !ok || v != 1 {
		t.Fatalf("after acked replay, ctr = %v (parsed %v), want exactly 1", got.Result, v)
	}

	// Phase 2 — crash racing the commit. Restore quorum headroom by
	// restarting the first victim from its WAL, fire another increment,
	// and kill the current leader immediately: the request may or may not
	// have committed when the leader dies. Retransmitting the same seq
	// until acked must land it exactly once either way.
	srvs[leader1] = startKVServer(t, dir, leader1, peers, &gridrep.GatewayOptions{})
	leader2 := tcpLeader(t, srvs, 20*time.Second)
	send(3, add)
	srvs[leader2].Close()
	delete(srvs, leader2)
	await(3, add, 30*time.Second)

	got = await(4, gridrep.KVGet("ctr"), 20*time.Second)
	if v, ok := gridrep.KVInt(got.Result); !ok || v != 2 {
		t.Fatalf("after mid-commit crash replay, ctr = %v (parsed %v), want exactly 2", got.Result, v)
	}
}
