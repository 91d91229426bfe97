package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gridrep/internal/client"
	"gridrep/internal/gateway"
	"gridrep/internal/metrics"
	"gridrep/internal/service"
	"gridrep/internal/shard"
	"gridrep/internal/wire"
)

func kvFactory() service.Service { return service.NewKV() }

func newShardedCluster(t *testing.T, n, groups int) *Cluster {
	t.Helper()
	c := newTestCluster(t, Config{N: n, Groups: groups, Service: kvFactory})
	if _, err := c.WaitForAllLeaders(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShardedLeadershipSpread: group g's leader converges to replica
// g mod N — the rank rotation of DESIGN.md §13 spreads the leader role
// (and its execute + fsync load) across the membership.
func TestShardedLeadershipSpread(t *testing.T) {
	const n, groups = 3, 4
	c := newShardedCluster(t, n, groups)
	deadline := time.Now().Add(10 * time.Second)
	for g := 0; g < groups; g++ {
		want := wire.NodeID(g % n)
		for {
			if l, ok := c.GroupLeader(g); ok && l == want {
				break
			}
			if time.Now().After(deadline) {
				l, ok := c.GroupLeader(g)
				t.Fatalf("group %d leader = %v,%v; want %v", g, l, ok, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestShardedWritesSpreadAcrossGroups: one group-unaware client writes
// many keys; the writes must commit, read back correctly, and actually
// land in more than one group's log.
func TestShardedWritesSpreadAcrossGroups(t *testing.T) {
	const n, groups = 3, 4
	c := newShardedCluster(t, n, groups)
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for i := 0; i < 24; i++ {
		k := fmt.Sprintf("k%03d", i)
		if _, err := cli.Write(service.KVPut(k, []byte(k))); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	for i := 0; i < 24; i++ {
		k := fmt.Sprintf("k%03d", i)
		rep, err := cli.Read(service.KVGet(k))
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if v, _ := service.KVReply(rep); string(v) != k {
			t.Fatalf("get %s = %q", k, v)
		}
	}

	// The router must have spread those keys over >1 group, and each
	// such group's replicas must show commit progress.
	r := shard.NewRouter(groups, service.NewKV())
	perGroup := map[uint32]int{}
	for i := 0; i < 24; i++ {
		perGroup[r.GroupForOp(service.KVPut(fmt.Sprintf("k%03d", i), nil))]++
	}
	if len(perGroup) < 2 {
		t.Fatalf("24 keys all hashed to one group: %v", perGroup)
	}
	for g, cnt := range perGroup {
		rep, ok := c.GroupReplica(0, int(g))
		if !ok {
			t.Fatalf("group %d replica missing", g)
		}
		if h := rep.Health(); h.CommitIndex == 0 {
			t.Fatalf("group %d got %d keys but commit index is 0 (health %+v)", g, cnt, h)
		}
	}
}

// TestShardedMetricsAndHealth: one registry per node with per-group
// prefixes, and GroupHealths exposes every group's position.
func TestShardedMetricsAndHealth(t *testing.T) {
	const n, groups = 3, 2
	c := newShardedCluster(t, n, groups)

	hs := c.GroupHealths(0)
	if len(hs) != groups {
		t.Fatalf("GroupHealths has %d entries, want %d", len(hs), groups)
	}

	reg, ok := c.NodeMetrics(0)
	if !ok {
		t.Fatal("sharded node has no registry")
	}
	var plain, prefixed bool
	for _, name := range reg.Names() {
		if strings.HasPrefix(name, "group_1_") {
			prefixed = true
		} else if !strings.HasPrefix(name, "group_") {
			plain = true
		}
	}
	if !plain || !prefixed {
		t.Fatalf("registry must hold group-0 (unprefixed) and group-1 (prefixed) instruments: %v", reg.Names())
	}
}

// TestShardedGatewayMetricsRegistered: a sharded node's cores cannot see
// the edge through their group endpoints, so the node registers it on
// the shared registry itself — exactly once, unprefixed, as the TCP
// server always did.
func TestShardedGatewayMetricsRegistered(t *testing.T) {
	c := newTestCluster(t, Config{N: 1, Groups: 2, Service: service.KVFactory, Gateway: &gateway.Config{}})
	reg, _ := c.NodeMetrics(0)
	if _, ok := metrics.Find(reg.Snapshot(), "gridrep_gateway_admitted_total"); !ok {
		t.Fatalf("no gridrep_gateway_* instruments on a sharded in-process node: %v", reg.Names())
	}
}

// TestShardedGroupFailoverIsolation: suspecting one group's leader moves
// only that group's leadership; sibling groups keep their leaders and
// the whole key space stays writable.
func TestShardedGroupFailoverIsolation(t *testing.T) {
	const n, groups = 3, 3
	c := newShardedCluster(t, n, groups)
	// Wait for the rank preemption of §16 to settle every group on its
	// preferred replica first: until then leadership moves on its own.
	before := make([]wire.NodeID, groups)
	settle := time.Now().Add(10 * time.Second)
	for g := 0; g < groups; g++ {
		before[g] = wire.NodeID(g % n)
		for l, ok := c.GroupLeader(g); !ok || l != before[g]; l, ok = c.GroupLeader(g) {
			if time.Now().After(settle) {
				t.Fatalf("group %d leader = %v,%v; want %v", g, l, ok, before[g])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	c.SuspectGroupLeader(1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if l, ok := c.GroupLeader(1); ok && l != before[1] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("group 1 leadership never moved")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, g := range []int{0, 2} {
		if l, ok := c.GroupLeader(g); !ok || l != before[g] {
			t.Fatalf("group %d leader moved too: %v (was %v)", g, l, before[g])
		}
	}

	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("f%03d", i)
		if _, err := cli.Write(service.KVPut(k, []byte(k))); err != nil {
			t.Fatalf("put %s after failover: %v", k, err)
		}
	}
}

// TestShardedCrossGroupTxnRefused: a transaction whose second op hashes
// to a different group fails with ErrCrossGroup (typed, end to end) and
// is counted on the node registry, while a single-group transaction
// commits.
func TestShardedCrossGroupTxnRefused(t *testing.T) {
	const n, groups = 3, 4
	c := newShardedCluster(t, n, groups)
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Find two keys in different groups and two in the same group.
	r := shard.NewRouter(groups, service.NewKV())
	g0 := r.GroupForOp(service.KVPut("k000", nil))
	var cross, same string
	for i := 1; i < 1000 && (cross == "" || same == ""); i++ {
		k := fmt.Sprintf("k%03d", i)
		if g := r.GroupForOp(service.KVPut(k, nil)); g != g0 && cross == "" {
			cross = k
		} else if g == g0 && same == "" {
			same = k
		}
	}
	if cross == "" || same == "" {
		t.Fatal("could not find key pair")
	}

	// Same-group transaction commits.
	txn := cli.Begin()
	if _, err := txn.Do(service.KVPut("k000", []byte("a"))); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Do(service.KVPut(same, []byte("b"))); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	// Cross-group transaction is refused with the typed error.
	txn = cli.Begin()
	if _, err := txn.Do(service.KVPut("k000", []byte("a"))); err != nil {
		t.Fatal(err)
	}
	_, err = txn.Do(service.KVPut(cross, []byte("b")))
	if !errors.Is(err, client.ErrCrossGroup) {
		t.Fatalf("cross-group txn op: err = %v, want ErrCrossGroup", err)
	}
	_ = txn.Abort()
	// The refusing node's multiplexer publishes it on the node registry.
	if n := c.SumMetric("gridrep_groupmux_cross_group_refusals_total"); n < 1 {
		t.Fatalf("cross-group refusals on the node registries = %d, want >= 1", n)
	}
}

// TestShardedWALLayout: group 0 keeps the pre-sharding WAL path, other
// groups nest under group-<g>/ — so a -groups 1 data dir is readable by
// (and byte-compatible with) a pre-sharding binary.
func TestShardedWALLayout(t *testing.T) {
	dir := t.TempDir()
	c := newTestCluster(t, Config{N: 3, Groups: 2, Service: kvFactory, DataDir: dir})
	if _, err := c.WaitForAllLeaders(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Touch both groups so both WAL families exist and carry entries.
	r := shard.NewRouter(2, service.NewKV())
	var hit [2]bool
	for i := 0; i < 100 && !(hit[0] && hit[1]); i++ {
		k := fmt.Sprintf("w%03d", i)
		g := r.GroupForOp(service.KVPut(k, nil))
		if hit[g] {
			continue
		}
		hit[g] = true
		if _, err := cli.Write(service.KVPut(k, []byte(k))); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 3; id++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("replica-%d.wal", id))); err != nil {
			t.Fatalf("group-0 WAL: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, "group-1", fmt.Sprintf("replica-%d.wal", id))); err != nil {
			t.Fatalf("group-1 WAL: %v", err)
		}
	}
}
