package gridrep_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gridrep"
)

// startKVServer boots one TCP replica of the KV service, WAL-backed at
// dir/r<id>.wal, with the client-facing edge when gw is set.
func startKVServer(t *testing.T, dir string, id gridrep.NodeID, peers map[gridrep.NodeID]string, gw *gridrep.GatewayOptions) *gridrep.Server {
	t.Helper()
	srv, err := gridrep.ListenAndServe(gridrep.ServerOptions{
		ID:      id,
		Peers:   peers,
		Service: gridrep.NewKV(),
		WALPath: filepath.Join(dir, fmt.Sprintf("r%d.wal", id)),
		Options: gridrep.Options{HeartbeatInterval: 10 * time.Millisecond},
		Gateway: gw,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestShardedLinearizabilityMatrix runs a per-key ordering scenario
// over real TCP and real WALs. One synchronous writer per key means an
// acked write is the key's latest committed version, so every read must
// return exactly the last acked value — before a leader crash, after
// the survivors elect a new leader, and after the crashed process
// restarts from its WAL. The matrix once ranged over group counts; a
// process hosts one group now, so groups=1 is its only case, kept
// under its old name.
func TestShardedLinearizabilityMatrix(t *testing.T) {
	t.Run("groups=1", runCrashRestartLinearizability)
}

func runCrashRestartLinearizability(t *testing.T) {
	dir := t.TempDir()
	ids := []gridrep.NodeID{0, 1, 2}
	peers := reservePorts(t, ids)
	srvs := make(map[gridrep.NodeID]*gridrep.Server, len(ids))
	for _, id := range ids {
		srvs[id] = startKVServer(t, dir, id, peers, nil)
	}
	t.Cleanup(func() {
		for _, s := range srvs {
			s.Close()
		}
	})
	tcpLeader(t, srvs, 15*time.Second)

	cli, err := gridrep.Dial(gridrep.DialOptions{ID: 1, Replicas: peers, Deadline: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// last records the acked history tip per key.
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

	victim := tcpLeader(t, srvs, 10*time.Second)
	srvs[victim].Close()
	delete(srvs, victim)
	writeRound("r1")
	checkAll("after failover")

	// Restart the crashed process from its WAL; every key must still
	// read its last acked value, and new writes commit.
	srvs[victim] = startKVServer(t, dir, victim, peers, nil)
	tcpLeader(t, srvs, 15*time.Second)
	writeRound("r2")
	checkAll("after restart")
}

// TestDebugHandlerHealthzShapes: /healthz serves the replica's Health
// as one JSON object, and /metrics serves the registry. The array shape
// for several groups is gone with them; groups=1 is the one shape left,
// kept under its old name.
func TestDebugHandlerHealthzShapes(t *testing.T) {
	t.Run("groups=1", runDebugHandlerHealthz)
}

func runDebugHandlerHealthz(t *testing.T) {
	dir := t.TempDir()
	ids := []gridrep.NodeID{0, 1, 2}
	peers := reservePorts(t, ids)
	srvs := make(map[gridrep.NodeID]*gridrep.Server, len(ids))
	for _, id := range ids {
		srvs[id] = startKVServer(t, dir, id, peers, nil)
	}
	t.Cleanup(func() {
		for _, s := range srvs {
			s.Close()
		}
	})
	leader := tcpLeader(t, srvs, 15*time.Second)

	rec := httptest.NewRecorder()
	srvs[leader].DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz: %d", rec.Code)
	}
	var h gridrep.Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("/healthz must be one object: %v\n%s", err, rec.Body.Bytes())
	}
	if h.ID != leader || h.Role == "" {
		t.Fatalf("/healthz = %+v, want replica %v's own position", h, leader)
	}

	rec = httptest.NewRecorder()
	srvs[leader].DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "gridrep_commit_index") {
		t.Fatalf("/metrics lacks gridrep_commit_index:\n%s", rec.Body.String())
	}
}
