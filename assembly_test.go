package gridrep_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridrep"
	"gridrep/internal/cluster"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metric_names from the running code")

// TestMetricNamesGolden pins every registered instrument name for
// {in-process, TCP} × groups {1, 2} × gateway {off, on}, WAL-backed, on
// the KV service. The benchmark reads its per-layer metrics as registry
// deltas by name, so a rename or a registration lost in assembly would
// silently zero a metric; here it fails a byte comparison. Rerun with
// -update after registering a new instrument or deleting one no reader
// uses, and never rename one.
func TestMetricNamesGolden(t *testing.T) {
	// Two processors while the replicas start: the read-pool gauges exist
	// only when the pool does, which otherwise depends on the host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, deploy := range []string{"inproc", "tcp"} {
		for _, groups := range []int{1, 2} {
			for _, gw := range []bool{false, true} {
				name := fmt.Sprintf("%s-groups%d", deploy, groups)
				var gwOpts *gridrep.GatewayOptions
				if gw {
					name += "-gateway"
					gwOpts = &gridrep.GatewayOptions{}
				}
				t.Run(name, func(t *testing.T) {
					var names []string
					if deploy == "inproc" {
						c, err := cluster.New(cluster.Config{N: 1, Groups: groups, Service: service.KVFactory,
							DataDir: t.TempDir(), Gateway: gwOpts})
						if err != nil {
							t.Fatal(err)
						}
						defer c.Close()
						reg, _ := c.NodeMetrics(0)
						names = reg.Names()
					} else {
						srv, err := gridrep.ListenAndServe(gridrep.ServerOptions{
							ID: 0, Peers: map[gridrep.NodeID]string{0: "127.0.0.1:0"},
							NewService: service.KVFactory, Groups: groups,
							WALPath: filepath.Join(t.TempDir(), "replica.wal"),
							Gateway: gwOpts,
						})
						if err != nil {
							t.Fatal(err)
						}
						defer srv.Shutdown()
						names = srv.Metrics().Names()
					}
					got := strings.Join(names, "\n") + "\n"
					path := filepath.Join("testdata", "metric_names", name+".txt")
					if *updateGolden {
						if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					recorded, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if got != string(recorded) {
						t.Errorf("registered metric names differ from %s\ngot:\n%swant:\n%s", path, got, recorded)
					}
				})
			}
		}
	}
}

// walState renders everything a store would replay, for comparing a
// store with its reopened file.
func walState(t *testing.T, st storage.Store) string {
	t.Helper()
	ps, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "promised=%v maxAccepted=%v chosen=%d snap=%d@%d members=%v+%v@%d pruned=%d\n",
		ps.Promised, ps.MaxAccepted, ps.Chosen, len(ps.ServiceSnap), ps.ServiceSnapAt,
		ps.Members, ps.Learners, ps.MembersAt, ps.PrunedTo)
	ps.Accepted.Ascend(0, 0, func(e wire.Entry) bool {
		fmt.Fprintf(&b, "%v\n", e)
		return true
	})
	return b.String()
}

// TestClusterCloseClosesItsWALs: the write-ahead logs a cluster opens
// itself under DataDir are its own to close. Before this was fixed each
// leaked a descriptor and kept its preallocated zero tail, and a
// background snapshot rewrite could outlive the test's temp dir.
func TestClusterCloseClosesItsWALs(t *testing.T) {
	dir := t.TempDir()
	// Default timeouts on purpose: Close stops the replicas one after
	// another, and no survivor may start an election in between.
	c, err := gridrep.NewCluster(gridrep.ClusterOptions{
		Service: func() gridrep.Service { return gridrep.NewKV() },
		DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	const writes = 20
	for i := 0; i < writes; i++ {
		if _, err := cli.Write(gridrep.KVPut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatal(err)
		}
	}
	cli.Close()

	// Quiesce: every replica has applied every write, so nothing more
	// will reach a store.
	inner := c.Internal()
	deadline := time.Now().Add(10 * time.Second)
	for settled := false; !settled; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("replicas did not settle")
		}
		settled = true
		for _, id := range inner.IDs() {
			hs := inner.GroupHealths(id)
			if len(hs) != 1 || hs[0].Applied < writes || hs[0].Applied != hs[0].CommitIndex {
				settled = false
			}
		}
	}
	before := map[gridrep.NodeID]string{}
	for _, id := range inner.IDs() {
		st, ok := inner.Store(id)
		if !ok {
			t.Fatalf("replica %v has no store", id)
		}
		before[id] = walState(t, st)
	}

	c.Close()

	for _, id := range inner.IDs() {
		path := cluster.GroupWALPath(dir, 0, id)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		// An open WAL is preallocated 1 MB ahead of its last record;
		// closing it truncates the file back to its logical length.
		if fi.Size() == 0 || fi.Size() >= 1<<20 {
			t.Errorf("%s is %d bytes after Close: want its logical length, short of the 1 MB preallocation", path, fi.Size())
		}
		st, err := storage.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if after := walState(t, st); after != before[id] {
			t.Errorf("replica %v: reopened WAL differs from the store Close closed\nbefore:\n%safter:\n%s", id, before[id], after)
		}
		st.Close()
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(ents)
}

// TestListenAndServeFailureReleasesEverything: when a later group fails
// to boot, the groups already started are stopped and their WALs closed,
// along with the listener — nothing of the failed server is left open.
func TestListenAndServeFailureReleasesEverything(t *testing.T) {
	dir := t.TempDir()
	opts := gridrep.ServerOptions{
		ID:         0,
		Peers:      reservePorts(t, []gridrep.NodeID{0}),
		NewService: func() gridrep.Service { return gridrep.NewKV() },
		Groups:     2,
		WALPath:    filepath.Join(dir, "replica.wal"),
	}
	// Group 1's WAL belongs in dir/group-1/; a regular file of that name
	// makes opening it fail after group 0 is already running.
	blocker := filepath.Join(dir, "group-1")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	start := openFDs(t)
	if srv, err := gridrep.ListenAndServe(opts); err == nil {
		srv.Close()
		t.Fatal("ListenAndServe succeeded with group 1's WAL directory blocked")
	}
	if now := openFDs(t); now != start {
		t.Errorf("%d descriptors open after the failed boot, %d before it", now, start)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	srv, err := gridrep.ListenAndServe(opts)
	if err != nil {
		t.Fatalf("second ListenAndServe on the same address and WAL: %v", err)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
}
