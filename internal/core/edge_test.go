package core

import (
	"bytes"
	"fmt"
	"testing"

	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// TestRequestsDuringElectionAreServed floods requests before any leader
// is active (cold boot): deferral plus client retries must serve every
// one of them exactly once.
func TestRequestsDuringElectionAreServed(t *testing.T) {
	s := newSim(t, simConfig{seed: 21})
	const n = 6
	s.concurrently(n, func(int) []wire.Request { return []wire.Request{kvAdd("boot")} }, func(int, int, wire.Reply) {})
	if got := s.newClient().counter("boot"); got != n {
		t.Fatalf("boot counter = %d, want %d", got, n)
	}
}

// TestStrayConfirmsIgnored sends the leader confirms for reads that do
// not exist, under zero, stale and foreign ballots, stamped and not: it
// must ignore them without state damage.
func TestStrayConfirmsIgnored(t *testing.T) {
	s, c := kvSim(t, 22)
	lead, _ := s.leader()
	for i := 0; i < 50; i++ {
		s.inject(wire.ClientIDBase+900, lead, &wire.Confirm{
			Bal:  wire.Ballot{Round: uint64(i % 3), Node: wire.NodeID(i % 5)},
			From: wire.NodeID(i % 3),
			Reads: []wire.Key{
				{Client: wire.ClientIDBase + wire.NodeID(i), Seq: uint64(i)},
				{Client: wire.ClientIDBase + wire.NodeID(i+1), Seq: uint64(i + 1)},
			},
			MaxAcc: uint64(i), MaxAccSet: i%2 == 0,
		})
	}
	c.must(wire.KindWrite, service.KVPut("k", []byte("v")))
	if v, _ := c.get("k"); v != "v" {
		t.Fatalf("read = %q after stray confirms", v)
	}
}

// TestStaleBallotMessagesIgnored injects a prepare, an accept and a
// commit below the current ballot at the leader: the protocol must
// reject them without disturbing its role, its log or its service.
func TestStaleBallotMessagesIgnored(t *testing.T) {
	s, c := kvSim(t, 23)
	c.must(wire.KindWrite, service.KVPut("k", []byte("v1")))
	lead, _ := s.leader()
	r := s.nodes[lead].r
	bal, chosen := r.Ballot(), r.Chosen()
	forger := wire.ClientIDBase + 901
	s.inject(forger, lead, &wire.Prepare{})
	s.inject(forger, lead, &wire.Accept{Entries: []wire.Entry{{
		Instance: 999,
		Prop: wire.Proposal{Reqs: []wire.Request{{
			Client: forger, Seq: 1, Kind: wire.KindWrite, Op: service.KVPut("k", []byte("evil")),
		}}},
	}}})
	s.inject(forger, lead, &wire.Commit{Index: 999})
	s.runFor(50 * r.cfg.HeartbeatInterval)
	if !r.IsActiveLeader() || r.Ballot() != bal || r.Chosen() != chosen {
		t.Fatalf("leader %d moved: active=%v ballot %v→%v chosen %d→%d", lead, r.IsActiveLeader(), bal, r.Ballot(), chosen, r.Chosen())
	}
	if v, _ := c.get("k"); v != "v1" {
		t.Fatalf("stale-ballot injection corrupted state: k = %q", v)
	}
}

// TestLargeOperationPayloads pushes a 1 MB operation through the whole
// protocol: codec, wave, delta and read.
func TestLargeOperationPayloads(t *testing.T) {
	s, c := kvSim(t, 24)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	c.must(wire.KindWrite, service.KVPut("big", big))
	if v, _ := c.get("big"); !bytes.Equal([]byte(v), big) {
		t.Fatal("large payload corrupted through the protocol")
	}
	s.mustConverge()
}

// TestManyClientsManyKeys is a breadth smoke: 12 clients, disjoint key
// ranges, interleaved writes and reads.
func TestManyClientsManyKeys(t *testing.T) {
	s, _ := kvSim(t, 25)
	s.concurrently(12, func(i int) []wire.Request {
		var reqs []wire.Request
		for j := 0; j < 10; j++ {
			key := fmt.Sprintf("c%d-k%d", i, j)
			reqs = append(reqs, wire.Request{Kind: wire.KindWrite, Op: service.KVPut(key, []byte{byte(j)})},
				wire.Request{Kind: wire.KindRead, Op: service.KVGet(key)})
		}
		return reqs
	}, func(i, n int, rep wire.Reply) {
		if v, _ := service.KVReply(rep.Result); n%2 == 1 && (len(v) != 1 || v[0] != byte(n/2)) {
			t.Errorf("client %d key %d: read %v", i, n/2, v)
		}
	})
	s.mustConverge()
}
