package storage_test

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridrep/internal/core"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// The format corpus (testdata/compat/): WALs written by earlier versions
// of storage.File, each beside a .want file naming the applied instance
// and every key the booted KV replica must serve. A format change adds
// files here and never edits one: the corpus is the oracle for "a WAL
// written by the previous version boots".
//
//   - v1-log.wal: a replica's raw log from before snapshot files — service
//     snapshots embedded in the WAL, a membership record (a fourth voter
//     joined) and a pruned prefix.
//   - v1-checkpoint.wal: another replica's log from the same run, folded
//     by a rewrite into one checkpoint record that embeds the snapshot.
//   - v2-log.wal with v2-log.wal.snap-<at>: the same run on the snapshot
//     file format — the WAL holds references, the bytes are in the file.
//     v2-checkpoint.wal is its rewritten form, whose checkpoint record
//     names the file.
func TestCompatCorpusBoots(t *testing.T) {
	wants, err := filepath.Glob(filepath.Join("testdata", "compat", "*.want"))
	if err != nil || len(wants) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, want := range wants {
		name := strings.TrimSuffix(filepath.Base(want), ".want")
		t.Run(name, func(t *testing.T) {
			applied, kv := readWant(t, want)
			r := bootCorpus(t, name)
			if got := r.Applied(); got != applied {
				t.Fatalf("booted at applied %d, want %d", got, applied)
			}
			view, ok := r.Service().(service.ReadViewer).ReadView()
			if !ok {
				t.Fatal("no read view")
			}
			model := service.NewKV()
			for k, v := range kv {
				res, err := view.ReadExecute(service.KVGet(k))
				if err != nil {
					t.Fatal(err)
				}
				if got, found := service.KVReply(res); !found || string(got) != v {
					t.Fatalf("%s = %q (found %v), want %q", k, got, found, v)
				}
				model.Execute(service.KVPut(k, []byte(v)))
			}
			if !bytes.Equal(r.Service().Snapshot(), model.Snapshot()) {
				t.Fatal("booted state holds keys the corpus does not name")
			}
		})
	}
}

// bootCorpus copies one corpus WAL and its snapshot files into a fresh
// directory (opening a WAL may truncate a torn tail or unlink files, and
// the committed corpus must never change) and boots a KV replica on it.
func bootCorpus(t *testing.T, name string) *core.Replica {
	t.Helper()
	dir := t.TempDir()
	files, _ := filepath.Glob(filepath.Join("testdata", "compat", name+".wal*"))
	for _, from := range files {
		data, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(from)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := storage.OpenFile(filepath.Join(dir, name+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	net := transport.NewNetwork(nil)
	t.Cleanup(func() { net.Close() })
	ep, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.New(core.Config{
		ID:        0,
		Peers:     []wire.NodeID{0, 1, 2},
		Service:   service.KVFactory,
		Store:     f,
		Transport: ep,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// readWant parses a .want file: "applied <n>", then one "<key> <value>"
// line per key.
func readWant(t *testing.T, path string) (uint64, map[string]string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var applied uint64
	kv := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var a, b string
		if _, err := fmt.Sscan(sc.Text(), &a, &b); err != nil {
			t.Fatalf("%s: %q: %v", path, sc.Text(), err)
		}
		if a == "applied" {
			fmt.Sscan(b, &applied)
			continue
		}
		kv[a] = b
	}
	if applied == 0 || len(kv) == 0 {
		t.Fatalf("%s: empty", path)
	}
	return applied, kv
}
