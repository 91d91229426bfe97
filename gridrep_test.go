package gridrep_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
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

// TestPublicAPIBareService: a user's service that is neither
// transactional nor able to pin read views is replicated and read
// through the factory's scratch instance; as one ServerOptions.Service
// instance, with no factory for that scratch, it is refused at start.
// One that is a ReadViewer, written here with gridrep's names alone, is
// served as one instance and read through its own views.
func TestPublicAPIBareService(t *testing.T) {
	bare := func() gridrep.Service { return struct{ gridrep.Service }{gridrep.NewKV()} }
	c := startCluster(t, gridrep.ClusterOptions{Service: bare})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(gridrep.KVPut("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Read(gridrep.KVPut("k", []byte("read"))); err == nil {
		t.Fatal("a put sent as a read succeeded")
	}
	res, err := cli.Read(gridrep.KVGet("k"))
	if v, ok := gridrep.KVReply(res); err != nil || !ok || string(v) != "v" {
		t.Fatalf("read = %q,%v,%v", v, ok, err)
	}
	_, err = gridrep.ListenAndServe(gridrep.ServerOptions{Peers: map[gridrep.NodeID]string{0: "127.0.0.1:0"}, Service: bare()})
	if err == nil || !strings.Contains(err.Error(), "ReadViewer") {
		t.Fatalf("ListenAndServe with one bare instance: err = %v", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := map[gridrep.NodeID]string{0: ln.Addr().String()}
	ln.Close()
	reg := &register{}
	var _ gridrep.ReadViewer = reg
	srv, err := gridrep.ListenAndServe(gridrep.ServerOptions{Peers: peers, Service: reg})
	if err != nil {
		t.Fatalf("ListenAndServe with one ReadViewer instance: %v", err)
	}
	t.Cleanup(srv.Close)
	tcli, err := gridrep.Dial(gridrep.DialOptions{ID: 1, Replicas: peers, Deadline: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tcli.Close()
	if _, err := tcli.Write([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	if got, err := tcli.Read(nil); err != nil || string(got) != "v1" {
		t.Fatalf("read through the register's view = %q, %v", got, err)
	}
	if _, err := tcli.Read([]byte("v2")); err == nil {
		t.Fatal("a write sent as a read succeeded")
	}
}

// register is a one-value service written against gridrep's names
// only: a non-empty op sets the value, the empty op reads it. A write
// replaces the value rather than changing it in place, so a view keeps
// the value it pinned.
type register struct{ v []byte }

func (r *register) Execute(op []byte) ([]byte, error) {
	if len(op) > 0 {
		r.v = append([]byte(nil), op...)
	}
	return r.v, nil
}
func (r *register) Snapshot() []byte          { return append([]byte(nil), r.v...) }
func (r *register) Restore(snap []byte) error { r.v = append([]byte(nil), snap...); return nil }
func (r *register) ReadView() (gridrep.ReadView, bool) {
	return registerView(r.v), true
}

type registerView []byte

func (v registerView) ReadExecute(op []byte) ([]byte, error) {
	if len(op) > 0 {
		return nil, errors.New("register: a write on a read view")
	}
	return v, nil
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

// TestPublicAPISuspectLeader: SuspectLeader moves leadership without a
// crash (§3.6), and a client's next write commits at the new leader.
func TestPublicAPISuspectLeader(t *testing.T) {
	c := startCluster(t, gridrep.ClusterOptions{
		Service: func() gridrep.Service { return gridrep.NewKV() },
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	old, ok := c.Leader()
	if !ok {
		t.Fatal("no leader")
	}
	c.SuspectLeader()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if l, ok := c.Leader(); ok && l != old {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leadership did not move from %v", old)
		}
	}
	if _, err := cli.Write(gridrep.KVPut("k", []byte("v"))); err != nil {
		t.Fatalf("write after the leader switch: %v", err)
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
