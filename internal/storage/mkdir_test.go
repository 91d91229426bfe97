package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gridrep/internal/wire"
)

// TestOpenFileCreatesMissingDirs: OpenFile must create missing parent
// directories itself (a WAL path such as replicad's -wal d/r0/replica.wal
// may name directories that do not exist yet) and the WAL must work
// normally afterwards.
func TestOpenFileCreatesMissingDirs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "group-3", "nested", "replica-0.wal")
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.PutAccepted([]wire.Entry{entry(1, wire.Ballot{Round: 1}, "a", false)}, wire.Ballot{Round: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen replays through the created directories.
	f, err = OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Accepted.Len(); got != 1 {
		t.Fatalf("reopened WAL has %d entries, want 1", got)
	}
}

// TestOpenFileConcurrentSiblingDirs is the regression test for a
// concurrent-startup race: N replicas open their WALs concurrently, each
// in its own fresh subdirectory of one shared parent. Every MkdirAll must succeed (EEXIST from a sibling's
// concurrent create is not an error) and every WAL must be usable.
func TestOpenFileConcurrentSiblingDirs(t *testing.T) {
	dir := t.TempDir()
	const groups = 8
	var wg sync.WaitGroup
	errs := make([]error, groups)
	files := make([]*File, groups)
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			path := filepath.Join(dir, fmt.Sprintf("group-%d", g), "replica-0.wal")
			f, err := OpenFile(path)
			if err != nil {
				errs[g] = err
				return
			}
			files[g] = f
			errs[g] = f.PutAccepted([]wire.Entry{entry(1, wire.Ballot{Round: 1}, fmt.Sprintf("g%d", g), false)}, wire.Ballot{Round: 1})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
	}
	for g, f := range files {
		if f != nil {
			if err := f.Close(); err != nil {
				t.Fatalf("group %d close: %v", g, err)
			}
		}
	}
	// All eight sibling directories must exist with their WALs inside.
	for g := 0; g < groups; g++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("group-%d", g), "replica-0.wal")); err != nil {
			t.Fatalf("group %d WAL missing: %v", g, err)
		}
	}
}

// TestOpenFileConcurrentSameDir: several replicas of different IDs (or
// retries of the same open) racing to create the SAME missing directory
// must all succeed — the historical bug was treating a concurrently
// created directory as a fatal open error.
func TestOpenFileConcurrentSameDir(t *testing.T) {
	dir := t.TempDir()
	shared := filepath.Join(dir, "group-1")
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := OpenFile(filepath.Join(shared, fmt.Sprintf("replica-%d.wal", i)))
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = f.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
}
