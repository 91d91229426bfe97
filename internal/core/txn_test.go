package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"gridrep/internal/client"
	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/service"
	"gridrep/internal/wire"
)

func TestTxnCommitAppliesAtomically(t *testing.T) {
	c, cli := newKVCluster(t)
	tx := cli.Begin()
	if _, err := tx.Do(service.KVPut("a", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Do(service.KVPut("b", []byte("2"))); err != nil {
		t.Fatal(err)
	}
	// Before commit, a plain read of a locked key hits the 2PL lock —
	// the "locks or other mechanisms" of §3.5 — rather than observing
	// uncommitted state.
	var se *client.ServiceError
	if _, err := cli.Read(service.KVGet("a")); !errors.As(err, &se) {
		t.Fatalf("read of locked key returned %v, want lock-conflict ServiceError", err)
	}
	// A read of an untouched key proceeds and sees nothing.
	res, err := cli.Read(service.KVGet("c"))
	if err != nil {
		t.Fatal(err)
	}
	if _, found := service.KVReply(res); found {
		t.Fatal("phantom key visible")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"a": "1", "b": "2"} {
		res, err := cli.Read(service.KVGet(k))
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := service.KVReply(res); string(v) != want {
			t.Fatalf("%s = %q, want %q", k, v, want)
		}
	}
	// The committed transaction must have replicated to the backups.
	waitConverged(t, c)
	snaps := snapshotAll(t, c)
	for i, snap := range snaps {
		if !bytes.Equal(snap, snaps[0]) {
			t.Fatalf("replica #%d diverged after txn commit", i)
		}
	}
}

func TestTxnAbortDiscards(t *testing.T) {
	_, cli := newKVCluster(t)
	if _, err := cli.Write(service.KVPut("a", []byte("base"))); err != nil {
		t.Fatal(err)
	}
	tx := cli.Begin()
	if _, err := tx.Do(service.KVPut("a", []byte("txn"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	res, err := cli.Read(service.KVGet("a"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := service.KVReply(res); string(v) != "base" {
		t.Fatalf("a = %q after abort, want base", v)
	}
}

func TestTxnOpsSeeOwnWrites(t *testing.T) {
	_, cli := newKVCluster(t)
	tx := cli.Begin()
	if _, err := tx.Do(service.KVAdd("acct", 100)); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Do(service.KVAdd("acct", -30))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := service.KVInt(res); n != 70 {
		t.Fatalf("in-txn balance = %d, want 70", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnConflictAborts(t *testing.T) {
	_, cli := newKVCluster(t)
	c2client := cli // same network; need a second client
	_ = c2client
	tx1 := cli.Begin()
	if _, err := tx1.Do(service.KVPut("k", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	// A second transaction from the same client touching the same key
	// must be wounded.
	tx2 := cli.Begin()
	_, err := tx2.Do(service.KVPut("k", []byte("2")))
	if !errors.Is(err, client.ErrAborted) {
		t.Fatalf("conflicting txn op returned %v, want ErrAborted", err)
	}
	if err := tx2.Commit(); !errors.Is(err, client.ErrAborted) {
		t.Fatalf("commit of aborted txn returned %v", err)
	}
	// tx1 is unaffected.
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnInterleavedDisjointKeys(t *testing.T) {
	c := newCluster(t, cluster.Config{Service: service.KVFactory})
	cli1, _ := c.NewClient()
	cli2, _ := c.NewClient()
	defer cli1.Close()
	defer cli2.Close()
	tx1 := cli1.Begin()
	tx2 := cli2.Begin()
	if _, err := tx1.Do(service.KVPut("x", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Do(service.KVPut("y", []byte("2"))); err != nil {
		t.Fatalf("disjoint concurrent txn conflicted: %v", err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	res, _ := cli1.Read(service.KVGet("y"))
	if v, _ := service.KVReply(res); string(v) != "2" {
		t.Fatalf("y = %q", v)
	}
}

func TestTxnLeaderSwitchAborts(t *testing.T) {
	// §3.6: "if the leader switches during the transaction, the previous
	// leader ... cannot commit, and the transaction has to be aborted."
	c, cli := newKVCluster(t)
	tx := cli.Begin()
	if _, err := tx.Do(service.KVPut("k", []byte("txn"))); err != nil {
		t.Fatal(err)
	}
	old, _ := c.Leader()
	c.Crash(old)
	// The commit (or any further op) must fail with an abort once the
	// new leader answers.
	err := tx.Commit()
	if !errors.Is(err, client.ErrAborted) {
		t.Fatalf("commit after leader switch returned %v, want ErrAborted", err)
	}
	// And nothing leaked into the replicated state.
	res, rerr := cli.Read(service.KVGet("k"))
	if rerr != nil {
		t.Fatal(rerr)
	}
	if _, found := service.KVReply(res); found {
		t.Fatal("aborted transaction's write leaked across the leader switch")
	}
}

func TestTxnOpAfterLeaderSwitchAborts(t *testing.T) {
	c, cli := newKVCluster(t)
	tx := cli.Begin()
	if _, err := tx.Do(service.KVPut("k", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	old, _ := c.Leader()
	c.Crash(old)
	if _, err := tx.Do(service.KVPut("k2", []byte("2"))); !errors.Is(err, client.ErrAborted) {
		t.Fatalf("txn op after switch returned %v, want ErrAborted", err)
	}
}

func TestTxnCommitSingleConsensusInstance(t *testing.T) {
	// The whole transaction occupies exactly one instance in the log:
	// commit index advances by 1 regardless of the op count (§3.5).
	c, cli := newKVCluster(t)
	leaderID, _ := c.Leader()
	var before uint64
	replica(t, c, leaderID).Inspect(func(r *core.Replica) { before = r.Chosen() })

	tx := cli.Begin()
	for i := 0; i < 5; i++ {
		if _, err := tx.Do(service.KVPut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var after uint64
	replica(t, c, leaderID).Inspect(func(r *core.Replica) { after = r.Chosen() })
	if after != before+1 {
		t.Fatalf("commit index advanced by %d, want 1 (one instance per txn)", after-before)
	}
}

func TestTxnOpsDoNotCoordinate(t *testing.T) {
	// T-Paxos's point: ops inside a transaction must not run consensus.
	c, cli := newKVCluster(t)
	leaderID, _ := c.Leader()
	var before uint64
	replica(t, c, leaderID).Inspect(func(r *core.Replica) { before = r.Chosen() })
	tx := cli.Begin()
	for i := 0; i < 4; i++ {
		if _, err := tx.Do(service.KVPut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatal(err)
		}
	}
	var during uint64
	replica(t, c, leaderID).Inspect(func(r *core.Replica) { during = r.Chosen() })
	if during != before {
		t.Fatalf("commit index moved during open transaction (%d -> %d)", before, during)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	var after uint64
	replica(t, c, leaderID).Inspect(func(r *core.Replica) { after = r.Chosen() })
	if after != before {
		t.Fatalf("aborted transaction consumed log instances (%d -> %d)", before, after)
	}
}

func TestTxnNoopConcurrent(t *testing.T) {
	// The benchmark service admits fully concurrent transactions.
	c := newCluster(t, cluster.Config{})
	const nClients = 6
	errCh := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		cli, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		go func(cli *client.Client) {
			defer cli.Close()
			for j := 0; j < 10; j++ {
				tx := cli.Begin()
				for k := 0; k < 3; k++ {
					if _, err := tx.Do(service.NoopWriteOp); err != nil {
						errCh <- err
						return
					}
				}
				if err := tx.Commit(); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(cli)
	}
	for i := 0; i < nClients; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	// Every committed op must be reflected in the noop version counter.
	waitConverged(t, c)
	leaderID, _ := c.Leader()
	var version uint64
	replica(t, c, leaderID).Inspect(func(r *core.Replica) {
		version = r.Service().(*service.Noop).Version()
	})
	if want := uint64(nClients * 10 * 3); version != want {
		t.Fatalf("noop version = %d, want %d", version, want)
	}
}

func TestExclusiveTxnSerialization(t *testing.T) {
	// The broker is not natively transactional: the Serialize adapter
	// admits one transaction at a time and the replica parks everything
	// else behind it.
	seed := int64(100)
	c := newCluster(t, cluster.Config{Service: func() service.Service {
		seed++
		return service.NewBroker(seed)
	}})
	cli1, _ := c.NewClient()
	cli2, _ := c.NewClient()
	defer cli1.Close()
	defer cli2.Close()

	if _, err := cli1.Write(service.BrokerRegister("n1", 10)); err != nil {
		t.Fatal(err)
	}
	tx := cli1.Begin()
	if _, err := tx.Do(service.BrokerRequest(1)); err != nil {
		t.Fatal(err)
	}
	// A plain write from another client must be parked (not lost, not
	// interleaved): issue it asynchronously, then commit.
	done := make(chan error, 1)
	go func() {
		_, err := cli2.Write(service.BrokerRegister("n2", 5))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the write arrive and park
	select {
	case err := <-done:
		t.Fatalf("write completed during exclusive transaction: %v", err)
	default:
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("parked write failed: %v", err)
	}
	res, err := cli1.Read(service.BrokerList())
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "n1 1/10\nn2 0/5\n" {
		t.Fatalf("final broker state:\n%s", res)
	}
}

func TestExclusiveTxnAbortRollsBack(t *testing.T) {
	seed := int64(200)
	c := newCluster(t, cluster.Config{Service: func() service.Service {
		seed++
		return service.NewBroker(seed)
	}})
	cli, _ := c.NewClient()
	defer cli.Close()
	if _, err := cli.Write(service.BrokerRegister("n1", 10)); err != nil {
		t.Fatal(err)
	}
	tx := cli.Begin()
	if _, err := tx.Do(service.BrokerRequest(3)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	res, err := cli.Read(service.BrokerList())
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "n1 0/10\n" {
		t.Fatalf("state after exclusive abort:\n%s", res)
	}
}

func TestTxnRetransmitIdempotent(t *testing.T) {
	// Retransmitted txn ops (TxnSeq-deduplicated) must not re-execute.
	c := newCluster(t, cluster.Config{Service: service.KVFactory})
	c.Net.Model().SetLoss(0, 1, 0) // ensure replica links clean
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Inject duplicates at the wire level: send the same txn op twice by
	// using a raw request. Easier: rely on the client; here we verify
	// via direct replica inspection that a replayed TxnSeq returns the
	// cached result rather than executing twice.
	tx := cli.Begin()
	res1, err := tx.Do(service.KVAdd("acct", 10))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := service.KVInt(res1); n != 10 {
		t.Fatalf("first add = %d", n)
	}
	leaderID, _ := c.Leader()
	// Replay the op with the same TxnSeq directly into the leader.
	var dup wire.Request
	dup = wire.Request{
		Client: cli.ID(), Seq: 999, Kind: wire.KindTxnOp, Txn: 1, TxnSeq: 0,
		Op: service.KVAdd("acct", 10),
	}
	ep, err := c.Net.Endpoint(wire.ClientIDBase + 999)
	if err != nil {
		t.Fatal(err)
	}
	ep.Send(&wire.Envelope{To: leaderID, Msg: &wire.RequestMsg{Req: dup}})
	time.Sleep(50 * time.Millisecond)
	res2, err := tx.Do(service.KVAdd("acct", 5))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := service.KVInt(res2); n != 15 {
		t.Fatalf("balance = %d, want 15 (duplicate op re-executed)", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
