package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

// TestSimSnapshotCrashes crashes a replica at each point of the durable
// snapshot's life on File WALs — the snapshot job's file durable but its
// reference not yet staged, the reference durable but the superseded
// file not yet unlinked, and a log rewrite carrying the reference — and
// requires the replica to boot from the snapshot its log names, the
// files beside its WAL to be that snapshot's alone, and the cluster to
// converge on every acknowledged write.
func TestSimSnapshotCrashes(t *testing.T) {
	for _, row := range []struct {
		name  string
		crash func(x *snapCrashRun) (bootAt uint64)
	}{
		{"file durable, reference not", func(x *snapCrashRun) uint64 {
			_, before := x.victim().r.acc.ServiceSnapshot()
			var orphan uint64
			x.snapWritten = func(n *simNode, job *snapJob) {
				if n.id != x.b {
					return
				}
				x.snapWritten = nil
				orphan = job.at
				if got := x.files(); !slices.Contains(got, job.at) {
					x.t.Fatalf("the job's file is not durable: %v", got)
				}
				x.crash(x.b)
			}
			x.writesUntil(func() bool { return orphan != 0 })
			if orphan <= before {
				x.t.Fatalf("the job wrote %d, not past the snapshot at %d", orphan, before)
			}
			return before
		}},
		{"reference durable, old file kept", func(x *snapCrashRun) uint64 {
			older := x.snapshotFile()
			kept, err := os.ReadFile(x.wal() + ".snap-" + strconv.FormatUint(older, 10))
			if err != nil {
				x.t.Fatal(err)
			}
			x.writesUntil(func() bool { return x.snapshotFile() > older })
			newer := x.snapshotFile()
			os.WriteFile(x.wal()+".snap-"+strconv.FormatUint(older, 10), kept, 0o644) // the unlink never happened
			x.crash(x.b)
			return newer
		}},
		{"rewrite carrying the reference", func(x *snapCrashRun) uint64 {
			at := x.snapshotFile()
			if err := x.victim().store.durable.(*storage.File).Checkpoint(); err != nil {
				x.t.Fatal(err)
			}
			// The next rewrite is cut short before its rename.
			os.WriteFile(x.wal()+".tmp", []byte("torn"), 0o644)
			x.crash(x.b)
			return at
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			s := newSim(t, simConfig{seed: 31, walDir: dir, opts: Options{SnapshotEvery: 16}})
			lead := s.awaitLeader(time.Second)
			x := &snapCrashRun{sim: s, dir: dir, b: (lead + 1) % 3, c: s.newClient()}
			x.writes(40)
			s.runFor(100 * time.Millisecond) // the backup's snapshot jobs complete
			boot := row.crash(x)
			x.writes(5)
			s.restart(x.b)
			if _, at := x.victim().r.acc.ServiceSnapshot(); at != boot {
				t.Fatalf("booted from the snapshot at %d, want %d", at, boot)
			}
			if got := x.files(); !slices.Equal(got, []uint64{boot}) {
				t.Fatalf("snapshot files beside the WAL after the boot: %v, want only %d's", got, boot)
			}
			if _, err := os.Stat(x.wal() + ".tmp"); !os.IsNotExist(err) {
				t.Fatal("a torn rewrite survived the boot")
			}
			x.writes(20)
			s.mustConverge()
			for _, n := range s.nodes {
				res, _ := n.r.Service().Execute(service.KVGet("ctr"))
				if got, _ := service.KVInt(res); got != int64(x.acked) {
					t.Fatalf("replica %d: counter %d, want %d", n.id, got, x.acked)
				}
			}
		})
	}
}

// snapCrashRun is one crash row: a cluster on File WALs, the backup b it
// crashes, and a client counting acknowledged increments.
type snapCrashRun struct {
	*sim
	dir   string
	b     wire.NodeID
	c     *simClient
	acked int
}

func (x *snapCrashRun) victim() *simNode { return x.nodes[x.b] }

func (x *snapCrashRun) writes(n int) {
	x.t.Helper()
	for i := 0; i < n; i++ {
		x.c.must(wire.KindWrite, service.KVAdd("ctr", 1))
		x.acked++
	}
}

// writesUntil writes until cond holds, at most 200 times.
func (x *snapCrashRun) writesUntil(cond func() bool) {
	x.t.Helper()
	for i := 0; !cond(); i++ {
		if i == 200 {
			x.t.Fatal("the condition never held")
		}
		x.writes(1)
	}
}

// wal is the victim's WAL path.
func (x *snapCrashRun) wal() string {
	return filepath.Join(x.dir, fmt.Sprintf("replica-%d.wal", x.b))
}

// files lists the instances of the snapshot files beside the victim's
// WAL; a temp file lists as 0.
func (x *snapCrashRun) files() []uint64 {
	m, _ := filepath.Glob(x.wal() + ".snap-*")
	var ats []uint64
	for _, p := range m {
		at, _ := strconv.ParseUint(strings.TrimPrefix(p, x.wal()+".snap-"), 10, 64)
		ats = append(ats, at)
	}
	slices.Sort(ats)
	return ats
}

// snapshotFile returns the instance of the victim's one snapshot file.
func (x *snapCrashRun) snapshotFile() uint64 {
	x.t.Helper()
	got := x.files()
	if len(got) != 1 || got[0] == 0 {
		x.t.Fatalf("snapshot files %v, want one", got)
	}
	return got[0]
}
