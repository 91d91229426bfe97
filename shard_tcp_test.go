package gridrep_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gridrep"
	"gridrep/internal/service"
	"gridrep/internal/shard"
)

// startShardedServer boots one TCP replica hosting the given number of
// consensus groups, WAL-backed under dir/r<id>/.
func startShardedServer(t *testing.T, dir string, id gridrep.NodeID, peers map[gridrep.NodeID]string, groups int) *gridrep.Server {
	t.Helper()
	srv, err := gridrep.ListenAndServe(gridrep.ServerOptions{
		ID:         id,
		Peers:      peers,
		NewService: func() gridrep.Service { return gridrep.NewKV() },
		Groups:     groups,
		WALPath:    filepath.Join(dir, fmt.Sprintf("r%d", id), "replica.wal"),
		Options:    gridrep.Options{HeartbeatInterval: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// waitAllGroupLeaders blocks until every group has an activated leader
// among the given servers.
func waitAllGroupLeaders(t *testing.T, srvs map[gridrep.NodeID]*gridrep.Server, groups int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for g := 0; g < groups; g++ {
		for {
			found := false
			for _, s := range srvs {
				if s == nil {
					continue
				}
				if hs := s.GroupHealths(); g < len(hs) && hs[g].Leading {
					found = true
					break
				}
			}
			if found {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("group %d never elected a leader", g)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// groupLeaderTCP returns the server currently leading group g.
func groupLeaderTCP(t *testing.T, srvs map[gridrep.NodeID]*gridrep.Server, g int, timeout time.Duration) gridrep.NodeID {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for id, s := range srvs {
			if s == nil {
				continue
			}
			if hs := s.GroupHealths(); g < len(hs) && hs[g].Leading {
				return id
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no leader for group %d", g)
	return 0
}

// TestShardedLinearizabilityMatrix is the satellite-4 acceptance test:
// the same per-key ordering scenario runs at -groups 1 and -groups 4
// over real TCP and real WALs. One synchronous writer per key means an
// acked write is the key's latest committed version, so every read must
// return exactly the last acked value — before a leader crash, while
// the victim group re-elects (sibling groups keep committing), and
// after the crashed process restarts from its WAL family.
func TestShardedLinearizabilityMatrix(t *testing.T) {
	for _, groups := range []int{1, 4} {
		groups := groups
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			runShardLinearizability(t, groups)
		})
	}
}

func runShardLinearizability(t *testing.T, groups int) {
	dir := t.TempDir()
	ids := []gridrep.NodeID{0, 1, 2}
	peers := reservePorts(t, ids)
	srvs := make(map[gridrep.NodeID]*gridrep.Server, len(ids))
	for _, id := range ids {
		srvs[id] = startShardedServer(t, dir, id, peers, groups)
	}
	t.Cleanup(func() {
		for _, s := range srvs {
			if s != nil {
				s.Close()
			}
		}
	})
	waitAllGroupLeaders(t, srvs, groups, 15*time.Second)

	cli, err := gridrep.Dial(gridrep.DialOptions{ID: 1, Replicas: peers, Deadline: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// 16 keys; with 4 groups their hashes cover several groups. last
	// records the acked history tip per key.
	const nkeys = 16
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	last := make(map[string]string, nkeys)
	writeRound := func(round string) {
		for _, k := range keys {
			v := k + "#" + round
			if _, err := cli.Write(gridrep.KVPut(k, []byte(v))); err != nil {
				t.Fatalf("round %s put %s: %v", round, k, err)
			}
			last[k] = v
		}
	}
	checkAll := func(when string) {
		for _, k := range keys {
			rep, err := cli.Read(gridrep.KVGet(k))
			if err != nil {
				t.Fatalf("%s: get %s: %v", when, k, err)
			}
			v, ok := gridrep.KVReply(rep)
			if !ok || string(v) != last[k] {
				t.Fatalf("%s: %s = %q, want last acked %q", when, k, v, last[k])
			}
		}
	}

	writeRound("r0")
	checkAll("before crash")

	// Crash the process leading the victim group (group 1 when sharded:
	// with leadership spread that is a different process than group 0's
	// leader, so sibling groups lose at most a follower).
	victimGroup := 0
	if groups > 1 {
		victimGroup = 1
	}
	victim := groupLeaderTCP(t, srvs, victimGroup, 10*time.Second)
	srvs[victim].Close()
	srvs[victim] = nil

	// Sibling groups keep committing while the victim group re-elects:
	// write the keys of the surviving groups first, then the full round
	// (which blocks until the victim group's new leader activates).
	if groups > 1 {
		r := shard.NewRouter(groups, service.NewKV())
		for _, k := range keys {
			if r.GroupForOp(gridrep.KVPut(k, nil)) == uint32(victimGroup) {
				continue
			}
			v := k + "#survivor"
			if _, err := cli.Write(gridrep.KVPut(k, []byte(v))); err != nil {
				t.Fatalf("surviving-group put %s during failover: %v", k, err)
			}
			last[k] = v
		}
	}
	writeRound("r1")
	checkAll("after failover")

	// Restart the crashed process from its WAL family; the whole matrix
	// must still read the last acked values, and new writes commit.
	srvs[victim] = startShardedServer(t, dir, victim, peers, groups)
	waitAllGroupLeaders(t, srvs, groups, 15*time.Second)
	writeRound("r2")
	checkAll("after restart")
}

// TestTCPCrossGroupTxn: the typed cross-group refusal travels the real
// wire — a transaction touching two groups' keys fails with
// ErrCrossGroup, and a same-group transaction commits.
func TestTCPCrossGroupTxn(t *testing.T) {
	const groups = 4
	dir := t.TempDir()
	ids := []gridrep.NodeID{0, 1, 2}
	peers := reservePorts(t, ids)
	srvs := make(map[gridrep.NodeID]*gridrep.Server, len(ids))
	for _, id := range ids {
		srvs[id] = startShardedServer(t, dir, id, peers, groups)
	}
	t.Cleanup(func() {
		for _, s := range srvs {
			s.Close()
		}
	})
	waitAllGroupLeaders(t, srvs, groups, 15*time.Second)

	cli, err := gridrep.Dial(gridrep.DialOptions{ID: 1, Replicas: peers, Deadline: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	r := shard.NewRouter(groups, service.NewKV())
	g0 := r.GroupForOp(gridrep.KVPut("key-000", nil))
	var same, cross string
	for i := 1; i < 1000 && (same == "" || cross == ""); i++ {
		k := fmt.Sprintf("key-%03d", i)
		if g := r.GroupForOp(gridrep.KVPut(k, nil)); g == g0 && same == "" {
			same = k
		} else if g != g0 && cross == "" {
			cross = k
		}
	}

	txn := cli.Begin()
	if _, err := txn.Do(gridrep.KVPut("key-000", []byte("a"))); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Do(gridrep.KVPut(same, []byte("b"))); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	txn = cli.Begin()
	if _, err := txn.Do(gridrep.KVPut("key-000", []byte("a"))); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Do(gridrep.KVPut(cross, []byte("c"))); !errors.Is(err, gridrep.ErrCrossGroup) {
		t.Fatalf("cross-group txn op: err = %v, want ErrCrossGroup", err)
	}
	_ = txn.Abort()
}

// TestDebugHandlerHealthzShapes: /healthz serves one Health object for a
// single-group server and an array of {"group": g, ...} objects for a
// sharded one; /metrics carries the per-group name prefixes.
func TestDebugHandlerHealthzShapes(t *testing.T) {
	for _, groups := range []int{1, 2} {
		groups := groups
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			dir := t.TempDir()
			ids := []gridrep.NodeID{0, 1, 2}
			peers := reservePorts(t, ids)
			srvs := make(map[gridrep.NodeID]*gridrep.Server, len(ids))
			for _, id := range ids {
				srvs[id] = startShardedServer(t, dir, id, peers, groups)
			}
			t.Cleanup(func() {
				for _, s := range srvs {
					s.Close()
				}
			})
			waitAllGroupLeaders(t, srvs, groups, 15*time.Second)

			rec := httptest.NewRecorder()
			srvs[0].DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
			if rec.Code != 200 {
				t.Fatalf("/healthz: %d", rec.Code)
			}
			body := rec.Body.Bytes()
			if groups == 1 {
				var h gridrep.Health
				if err := json.Unmarshal(body, &h); err != nil {
					t.Fatalf("single-group /healthz must be one object: %v\n%s", err, body)
				}
			} else {
				var hs []struct {
					Group int `json:"group"`
					gridrep.Health
				}
				if err := json.Unmarshal(body, &hs); err != nil {
					t.Fatalf("sharded /healthz must be an array: %v\n%s", err, body)
				}
				if len(hs) != groups {
					t.Fatalf("/healthz has %d groups, want %d", len(hs), groups)
				}
				for i, h := range hs {
					if h.Group != i {
						t.Fatalf("entry %d has group %d", i, h.Group)
					}
				}
			}

			rec = httptest.NewRecorder()
			srvs[0].DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != 200 {
				t.Fatalf("/metrics: %d", rec.Code)
			}
			hasPrefix := strings.Contains(rec.Body.String(), "group_1_")
			if (groups > 1) != hasPrefix {
				t.Fatalf("groups=%d: metrics group_1_ prefix presence = %v", groups, hasPrefix)
			}
		})
	}
}
