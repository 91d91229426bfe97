package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"gridrep/internal/wire"
)

// snapBytes is a service snapshot no record encoding could contain by
// accident, so a scan of the WAL finds it only if it was copied there.
func snapBytes(tag byte, n int) []byte {
	b := bytes.Repeat([]byte("snapshot-bytes-"), n/15+1)[:n]
	b[0] = tag
	return b
}

func openTest(t *testing.T, path string) *File {
	t.Helper()
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Sync = false
	return s
}

// snapFiles lists the snapshot files beside the WAL at path, temp files
// included.
func snapFiles(t *testing.T, path string) []string {
	t.Helper()
	m, err := filepath.Glob(path + ".snap-*")
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		m[i] = filepath.Base(m[i])
	}
	return m
}

func wantSnapFiles(t *testing.T, path string, want ...string) {
	t.Helper()
	if got := snapFiles(t, path); !slices.Equal(got, want) {
		t.Fatalf("snapshot files %v, want %v", got, want)
	}
}

// TestSnapshotFileLifecycle: a saved snapshot lives in <wal>.snap-<at>,
// never in the WAL, through saves, a rewrite and reopens; a superseded
// file goes once the newer reference is synced.
func TestSnapshotFileLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s := openTest(t, path)
	b := wire.Ballot{Round: 1}
	s.PutAccepted([]wire.Entry{entry(1, b, "a", true)}, b)
	first, second := snapBytes('1', 4000), snapBytes('2', 5000)
	if err := s.SaveSnapshot(first, 10); err != nil {
		t.Fatal(err)
	}
	wantSnapFiles(t, path, "wal.snap-10")
	s.SetBuffered(true)
	if err := s.SaveSnapshot(second, 20); err != nil {
		t.Fatal(err)
	}
	// Staged, not yet durable: the file it supersedes must stay.
	wantSnapFiles(t, path, "wal.snap-10", "wal.snap-20")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	wantSnapFiles(t, path, "wal.snap-20")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	wal, _ := os.ReadFile(path)
	if bytes.Contains(wal, first[:100]) || bytes.Contains(wal, second[:100]) {
		t.Fatal("the WAL holds snapshot bytes")
	}
	if len(wal) > 512 {
		t.Fatalf("the rewritten WAL is %d bytes", len(wal))
	}

	s = openTest(t, path)
	defer s.Close()
	st, _ := s.Load()
	if st.ServiceSnapAt != 20 || !bytes.Equal(st.ServiceSnap, second) {
		t.Fatalf("reopened at snapshot %d (%d bytes), want 20", st.ServiceSnapAt, len(st.ServiceSnap))
	}
	if e, ok := st.Accepted.Get(1); !ok || string(e.Prop.Reqs[0].Op) != "a" {
		t.Fatal("the rewrite lost the log")
	}
}

// TestSnapshotFileMustMatch: the file the newest reference names must
// match its length and CRC-32, or the open fails; a missing one fails
// it too.
func TestSnapshotFileMustMatch(t *testing.T) {
	for name, damage := range map[string]func(string){
		"flip":     func(p string) { b, _ := os.ReadFile(p); b[7] ^= 1; os.WriteFile(p, b, 0o644) },
		"truncate": func(p string) { os.Truncate(p, 100) },
		"extend":   func(p string) { f, _ := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0); f.Write([]byte{0}); f.Close() },
		"remove":   func(p string) { os.Remove(p) },
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			s := openTest(t, path)
			s.SaveSnapshot(snapBytes('a', 300), 5)
			s.Close()
			damage(path + ".snap-5")
			if s, err := OpenFile(path); err == nil {
				s.Close()
				t.Fatal("opened on a snapshot file that does not match its reference")
			}
		})
	}
}

// TestSnapshotOrphansUnlinkedAtOpen: a file written but never
// referenced — a crash between the snapshot job's write and its
// reference — and the temp files of interrupted writes and rewrites are
// unlinked at open, and the store boots from the previous snapshot.
func TestSnapshotOrphansUnlinkedAtOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s := openTest(t, path)
	old := snapBytes('o', 700)
	s.SaveSnapshot(old, 8)
	if err := s.WriteSnapshot(snapBytes('n', 900), 16); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for _, tmp := range []string{path + ".snap-24.tmp", path + ".tmp"} {
		os.WriteFile(tmp, []byte("torn"), 0o644)
	}
	wantSnapFiles(t, path, "wal.snap-16", "wal.snap-24.tmp", "wal.snap-8")

	s = openTest(t, path)
	defer s.Close()
	st, _ := s.Load()
	if st.ServiceSnapAt != 8 || !bytes.Equal(st.ServiceSnap, old) {
		t.Fatalf("booted at snapshot %d, want the referenced 8", st.ServiceSnapAt)
	}
	wantSnapFiles(t, path, "wal.snap-8")
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("a rewrite's temp file survived the open")
	}
}

// TestSnapshotCrashBeforeUnlink: a crash after the newer reference is
// durable but before the superseded file is unlinked boots from the
// newer file and unlinks the older one.
func TestSnapshotCrashBeforeUnlink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s := openTest(t, path)
	older, newer := snapBytes('o', 600), snapBytes('n', 800)
	s.SaveSnapshot(older, 4)
	kept, _ := os.ReadFile(path + ".snap-4")
	s.SaveSnapshot(newer, 9)
	s.Close()
	os.WriteFile(path+".snap-4", kept, 0o644) // the unlink never happened

	s = openTest(t, path)
	defer s.Close()
	if st, _ := s.Load(); st.ServiceSnapAt != 9 || !bytes.Equal(st.ServiceSnap, newer) {
		t.Fatalf("booted at snapshot %d, want 9", st.ServiceSnapAt)
	}
	wantSnapFiles(t, path, "wal.snap-9")
}

// TestEmbeddedSnapshotMovesToFile: a WAL written before snapshot files
// (the compat corpus's v1-log.wal embeds its snapshots) opens with its
// snapshot moved into a file of its own, so a rewrite copies only the
// reference.
func TestEmbeddedSnapshotMovesToFile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "compat", "v1-log.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal")
	os.WriteFile(path, data, 0o644)
	s := openTest(t, path)
	want, _ := s.Load()
	if want.ServiceSnapAt == 0 {
		t.Fatal("the corpus WAL holds no snapshot")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if wal, _ := os.ReadFile(path); bytes.Contains(wal, want.ServiceSnap) {
		t.Fatal("the rewrite copied the snapshot's bytes")
	}
	s = openTest(t, path)
	defer s.Close()
	got, _ := s.Load()
	if got.ServiceSnapAt != want.ServiceSnapAt || !bytes.Equal(got.ServiceSnap, want.ServiceSnap) ||
		got.Chosen != want.Chosen || got.PrunedTo != want.PrunedTo || !reflect.DeepEqual(got.Members, want.Members) {
		t.Fatalf("reopened state differs: snapshot %d chosen %d pruned %d members %v",
			got.ServiceSnapAt, got.Chosen, got.PrunedTo, got.Members)
	}
}

// FuzzWALReplay feeds OpenFile arbitrary WAL bytes beside an arbitrary
// snapshot file for instance at. Opening must fail or yield a state
// that reopening reproduces exactly (replay stopped at a record
// boundary and truncated there), and a snapshot it accepts from a file
// must match the reference's length and CRC-32. It must never panic.
func FuzzWALReplay(f *testing.F) {
	wal, snap := fuzzSeedWAL(f)
	f.Add(wal, snap, uint64(12))
	f.Add(wal, snap, uint64(5))
	f.Add(wal[:len(wal)-3], snap, uint64(12))
	f.Add(wal, snap[:len(snap)-1], uint64(12))
	f.Add([]byte{}, []byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, wal, snap []byte, at uint64) {
		if len(wal) > 1<<16 || len(snap) > 1<<16 {
			return
		}
		path := filepath.Join(t.TempDir(), "wal")
		os.WriteFile(path, wal, 0o644)
		os.WriteFile(path+".snap-"+strconv.FormatUint(at, 10), snap, 0o644)
		s, err := OpenFile(path)
		if err != nil {
			return
		}
		s.Sync = false
		st, _ := s.Load()
		if s.ref.at != 0 && newSnapRef(st.ServiceSnap, s.ref.at) != s.ref {
			t.Fatalf("accepted a snapshot of %d bytes for reference %+v", len(st.ServiceSnap), s.ref)
		}
		s.Close()
		again, err := OpenFile(path)
		if err != nil {
			t.Fatalf("the truncated WAL no longer opens: %v", err)
		}
		defer again.Close()
		st2, _ := again.Load()
		if !reflect.DeepEqual(st, st2) {
			t.Fatal("reopening changed the state")
		}
	})
}

// fuzzSeedWAL is a small valid WAL holding every record kind, with a
// snapshot reference, and the snapshot file it names (instance 12).
func fuzzSeedWAL(tb testing.TB) (wal, snap []byte) {
	dir, err := os.MkdirTemp("", "fuzzwal")
	if err != nil {
		tb.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "wal")
	s, err := OpenFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	s.Sync = false
	b := wire.Ballot{Round: 3, Node: 1}
	s.SetPromised(b)
	for i := uint64(1); i <= 14; i++ {
		s.PutAccepted([]wire.Entry{entry(i, b, "op", i%4 == 0)}, b)
	}
	s.SetChosen(14)
	s.SetMembers([]wire.NodeID{0, 1, 2}, []wire.NodeID{3}, 6)
	s.SaveSnapshot(snapBytes('s', 64), 12)
	s.Compact(12)
	s.PruneTo(10)
	s.Close()
	wal, _ = os.ReadFile(path)
	snap, _ = os.ReadFile(path + ".snap-12")
	return wal, snap
}

// TestWriteSnapshotBesideStaging runs snapshot jobs' writes on their own
// goroutine while the owner stages, flushes and — as a catch-up install
// does — saves a newer snapshot inline mid-job (meaningful under
// -race). The store ends on the newest snapshot saved, with its file
// alone beside the WAL once reopened.
func TestWriteSnapshotBesideStaging(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s := openTest(t, path)
	s.SetBuffered(true)
	b := wire.Ballot{Round: 1}
	var last []byte
	var lastAt uint64
	for i := uint64(1); i <= 20; i++ {
		at := 100 * i
		job := snapBytes(byte(i), 2000+int(i))
		done := make(chan error, 1)
		go func() { done <- s.WriteSnapshot(job, at) }()
		for k := uint64(0); k < 5; k++ {
			s.PutAccepted([]wire.Entry{entry(at+k, b, "w", false)}, b)
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		install := i%4 == 0
		if install {
			last, lastAt = snapBytes('i', 1500), at+50
			if err := s.SaveSnapshot(last, lastAt); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := s.SaveSnapshot(job, at); err != nil {
			t.Fatal(err)
		}
		if !install {
			last, lastAt = job, at
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s = openTest(t, path)
	defer s.Close()
	if st, _ := s.Load(); st.ServiceSnapAt != lastAt || !bytes.Equal(st.ServiceSnap, last) {
		t.Fatalf("reopened at snapshot %d, want %d", st.ServiceSnapAt, lastAt)
	}
	wantSnapFiles(t, path, "wal.snap-"+strconv.FormatUint(lastAt, 10))
}
