package gridrep_test

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"gridrep"
)

func startCluster(t *testing.T, opts gridrep.ClusterOptions) *gridrep.Cluster {
	t.Helper()
	c, err := gridrep.NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPublicAPIQuickstart(t *testing.T) {
	c := startCluster(t, gridrep.ClusterOptions{
		Service: func() gridrep.Service { return gridrep.NewKV() },
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(gridrep.KVPut("greeting", []byte("hello"))); err != nil {
		t.Fatal(err)
	}
	res, err := cli.Read(gridrep.KVGet("greeting"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := gridrep.KVReply(res); !ok || string(v) != "hello" {
		t.Fatalf("read = %q,%v", v, ok)
	}
}

func TestPublicAPITransactions(t *testing.T) {
	c := startCluster(t, gridrep.ClusterOptions{
		Service: func() gridrep.Service { return gridrep.NewKV() },
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(gridrep.KVAdd("alice", 100)); err != nil {
		t.Fatal(err)
	}
	tx := cli.Begin()
	if _, err := tx.Do(gridrep.KVAdd("alice", -40)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Do(gridrep.KVAdd("bob", 40)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, _ := cli.Read(gridrep.KVGet("bob"))
	if n, _ := gridrep.KVInt(res); n != 40 {
		t.Fatalf("bob = %d", n)
	}
}

func TestPublicAPIFailover(t *testing.T) {
	c := startCluster(t, gridrep.ClusterOptions{
		Service: func() gridrep.Service { return gridrep.NewKV() },
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(gridrep.KVPut("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	leader, ok := c.Leader()
	if !ok {
		t.Fatal("no leader")
	}
	c.Crash(leader)
	res, err := cli.Read(gridrep.KVGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := gridrep.KVReply(res); string(v) != "v" {
		t.Fatalf("read after failover = %q", v)
	}
	if err := c.Restart(leader); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIDurableCluster(t *testing.T) {
	dir := t.TempDir()
	c := startCluster(t, gridrep.ClusterOptions{
		Service: func() gridrep.Service { return gridrep.NewKV() },
		DataDir: dir,
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(gridrep.KVPut("durable", []byte("yes"))); err != nil {
		t.Fatal(err)
	}
	// Crash and restart a backup: its WAL must bring it back.
	var backup gridrep.NodeID
	leader, _ := c.Leader()
	for i := gridrep.NodeID(0); i < 3; i++ {
		if i != leader {
			backup = i
			break
		}
	}
	c.Crash(backup)
	if err := c.Restart(backup); err != nil {
		t.Fatal(err)
	}
	res, err := cli.Read(gridrep.KVGet("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := gridrep.KVReply(res); string(v) != "yes" {
		t.Fatalf("durable read = %q", v)
	}
}

func TestPublicAPIErrAborted(t *testing.T) {
	c := startCluster(t, gridrep.ClusterOptions{
		Service: func() gridrep.Service { return gridrep.NewKV() },
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	tx1 := cli.Begin()
	if _, err := tx1.Do(gridrep.KVPut("k", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	tx2 := cli.Begin()
	if _, err := tx2.Do(gridrep.KVPut("k", []byte("2"))); !errors.Is(err, gridrep.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPDeployment(t *testing.T) {
	// Three replica processes over real TCP on loopback, one client.
	// Reserve three ports first so every replica starts with the full
	// address book.
	peers := make(map[gridrep.NodeID]string, 3)
	for id := gridrep.NodeID(0); id < 3; id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[id] = ln.Addr().String()
		ln.Close()
	}
	for id := gridrep.NodeID(0); id < 3; id++ {
		srv, err := gridrep.ListenAndServe(gridrep.ServerOptions{
			ID:      id,
			Peers:   peers,
			Service: gridrep.NewKV(),
			Options: gridrep.Options{HeartbeatInterval: 10 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
	}
	cli, err := gridrep.Dial(gridrep.DialOptions{ID: 1, Replicas: peers, Deadline: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 5; i++ {
		if _, err := cli.Write(gridrep.KVPut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("TCP write %d: %v", i, err)
		}
	}
	res, err := cli.Read(gridrep.KVGet("k3"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := gridrep.KVReply(res); string(v) != "v" {
		t.Fatalf("TCP read = %q", v)
	}
	tx := cli.Begin()
	if _, err := tx.Do(gridrep.KVPut("t", []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
