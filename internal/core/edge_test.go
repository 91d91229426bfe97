package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gridrep/internal/client"
	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// TestRequestsDuringElectionAreServed floods requests while no leader is
// active yet (cold boot): deferral plus client retries must serve every
// one of them exactly once.
func TestRequestsDuringElectionAreServed(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Service:          service.KVFactory,
		Options:          core.Options{HeartbeatInterval: 5 * time.Millisecond},
		ClientRetryEvery: 100 * time.Millisecond,
		ClientDeadline:   20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	// Deliberately NO WaitForLeader: clients fire from the first moment.
	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		cli, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, cli *client.Client) {
			defer wg.Done()
			defer cli.Close()
			if _, err := cli.Write(service.KVAdd("boot", 1)); err != nil {
				errs <- err
				return
			}
			errs <- nil
		}(i, cli)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	verifier, _ := c.NewClient()
	defer verifier.Close()
	res, err := verifier.Read(service.KVGet("boot"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := service.KVInt(res); got != n {
		t.Fatalf("boot counter = %d, want %d", got, n)
	}
}

// TestStrayConfirmsIgnored sends confirms for reads that do not exist and
// with wrong ballots: the leader must ignore them without state damage.
func TestStrayConfirmsIgnored(t *testing.T) {
	c, cli := newKVCluster(t)
	leaderID, _ := c.Leader()
	ep, err := c.Net.Endpoint(wire.ClientIDBase + 900)
	if err != nil {
		t.Fatal(err)
	}
	// Garbage confirms: unknown read keys, zero and absurd ballots.
	for i := 0; i < 50; i++ {
		ep.Send(&wire.Envelope{To: leaderID, Msg: &wire.Confirm{
			Bal:  wire.Ballot{Round: uint64(i % 3), Node: wire.NodeID(i % 5)},
			From: wire.NodeID(i % 3),
			Reads: []wire.Key{
				{Client: wire.ClientIDBase + wire.NodeID(i), Seq: uint64(i)},
				{Client: wire.ClientIDBase + wire.NodeID(i+1), Seq: uint64(i + 1)},
			},
		}})
	}
	// Service must still work.
	if _, err := cli.Write(service.KVPut("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	res, err := cli.Read(service.KVGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := service.KVReply(res); string(v) != "v" {
		t.Fatalf("read = %q after stray confirms", v)
	}
}

// TestStaleBallotMessagesIgnored injects prepares/accepts below the
// current ballot directly at the leader; the protocol must reject them
// without disturbing service.
func TestStaleBallotMessagesIgnored(t *testing.T) {
	c, cli := newKVCluster(t)
	if _, err := cli.Write(service.KVPut("k", []byte("v1"))); err != nil {
		t.Fatal(err)
	}
	leaderID, _ := c.Leader()
	ep, err := c.Net.Endpoint(wire.ClientIDBase + 901)
	if err != nil {
		t.Fatal(err)
	}
	zero := wire.Ballot{}
	ep.Send(&wire.Envelope{To: leaderID, Msg: &wire.Prepare{Bal: zero}})
	ep.Send(&wire.Envelope{To: leaderID, Msg: &wire.Accept{Bal: zero, Entries: []wire.Entry{{
		Instance: 999,
		Prop: wire.Proposal{Reqs: []wire.Request{{
			Client: wire.ClientIDBase + 901, Seq: 1, Kind: wire.KindWrite,
			Op: service.KVPut("k", []byte("evil")),
		}}},
	}}}})
	ep.Send(&wire.Envelope{To: leaderID, Msg: &wire.Commit{Bal: zero, Index: 999}})
	time.Sleep(50 * time.Millisecond)
	res, err := cli.Read(service.KVGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := service.KVReply(res); string(v) != "v1" {
		t.Fatalf("stale-ballot injection corrupted state: k = %q", v)
	}
}

// TestLargeOperationPayloads pushes MB-scale operations through the full
// protocol stack (codec, waves, state snapshots).
func TestLargeOperationPayloads(t *testing.T) {
	_, cli := newKVCluster(t)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if _, err := cli.Write(service.KVPut("big", big)); err != nil {
		t.Fatal(err)
	}
	res, err := cli.Read(service.KVGet("big"))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := service.KVReply(res)
	if len(v) != len(big) || v[123456] != big[123456] {
		t.Fatal("large payload corrupted through the protocol")
	}
}

// TestManyClientsManyKeys is a breadth smoke: 12 clients, disjoint key
// ranges, interleaved reads and writes.
func TestManyClientsManyKeys(t *testing.T) {
	c := newCluster(t, cluster.Config{Service: service.KVFactory})
	const nClients = 12
	errs := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		cli, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		go func(i int, cli *client.Client) {
			defer cli.Close()
			for j := 0; j < 10; j++ {
				key := fmt.Sprintf("c%d-k%d", i, j)
				if _, err := cli.Write(service.KVPut(key, []byte{byte(j)})); err != nil {
					errs <- err
					return
				}
				res, err := cli.Read(service.KVGet(key))
				if err != nil {
					errs <- err
					return
				}
				if v, _ := service.KVReply(res); len(v) != 1 || v[0] != byte(j) {
					errs <- fmt.Errorf("client %d key %d: read %v", i, j, v)
					return
				}
			}
			errs <- nil
		}(i, cli)
	}
	for i := 0; i < nClients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
