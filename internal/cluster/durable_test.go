package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gridrep/internal/core"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

// crashWithMemoryLoss models a real crash for a WAL-backed replica: the
// replica stops, and its retained Store object — which still holds staged
// (never-flushed) records in RAM — is replaced by a fresh replay of the
// on-disk WAL, keeping only what a restart would actually see.
func crashWithMemoryLoss(t *testing.T, c *Cluster, id wire.NodeID, dataDir string) {
	t.Helper()
	c.Crash(id)
	fresh, err := storage.OpenFile(filepath.Join(dataDir, fmt.Sprintf("replica-%d.wal", id)))
	if err != nil {
		t.Fatal(err)
	}
	c.SetStore(id, fresh)
	if err := c.Restart(id); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCrashRestartKeepsAckedWrites drives writes through WAL-backed
// replicas, crashes the leader (losing its in-memory staged state), then a
// backup, and checks that every acknowledged write is still readable —
// the §3.3 durability argument end to end through the group-commit
// pipeline.
func TestDurableCrashRestartKeepsAckedWrites(t *testing.T) {
	dataDir := t.TempDir()
	c := newTestCluster(t, Config{
		Service:    service.KVFactory,
		DataDir:    dataDir,
		SyncPolicy: storage.SyncPolicyBatch,
	})
	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	acked := map[string]string{}
	put := func(i int) {
		k, v := fmt.Sprintf("k%03d", i), fmt.Sprintf("v%03d", i)
		if _, err := cli.Write(service.KVPut(k, []byte(v))); err != nil {
			t.Fatalf("write %s: %v", k, err)
		}
		acked[k] = v
	}
	checkAll := func(stage string) {
		t.Helper()
		for k, v := range acked {
			res, err := cli.Read(service.KVGet(k))
			if err != nil {
				t.Fatalf("%s: read %s: %v", stage, k, err)
			}
			got, found := service.KVReply(res)
			if !found || string(got) != v {
				t.Fatalf("%s: %s = %q (found=%v), want %q (acked write lost)", stage, k, got, found, v)
			}
		}
	}

	for i := 0; i < 20; i++ {
		put(i)
	}

	leader, ok := c.Leader()
	if !ok {
		t.Fatal("no leader")
	}
	crashWithMemoryLoss(t, c, leader, dataDir)
	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkAll("after leader crash")

	for i := 20; i < 40; i++ {
		put(i)
	}

	leader, _ = c.Leader()
	var backup wire.NodeID
	for _, id := range c.Running() {
		if id != leader {
			backup = id
			break
		}
	}
	crashWithMemoryLoss(t, c, backup, dataDir)
	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 50; i++ {
		put(i)
	}
	checkAll("after backup crash")
}

// flakyWAL wraps a File store and fails either Flush (the persister
// goroutine's path) or PutAccepted (the event-loop inline path) after a
// set number of successes.
type flakyWAL struct {
	*storage.File
	mu         sync.Mutex
	okFlushes  int
	okAccepts  int
	failFlush  bool
	failAccept bool
}

var errInjected = errors.New("injected storage failure")

func (f *flakyWAL) Flush() error {
	if f.failFlush {
		f.mu.Lock()
		f.okFlushes--
		out := f.okFlushes < 0
		f.mu.Unlock()
		if out {
			return errInjected
		}
	}
	return f.File.Flush()
}

func (f *flakyWAL) PutAccepted(entries []wire.Entry, max wire.Ballot) error {
	if f.failAccept {
		f.mu.Lock()
		f.okAccepts--
		out := f.okAccepts < 0
		f.mu.Unlock()
		if out {
			return errInjected
		}
	}
	return f.File.PutAccepted(entries, max)
}

// TestPersistFailureFailStops: a replica whose storage starts failing —
// whether the failure surfaces in the persister goroutine's Flush or in
// an inline mutation on the event loop — must fail-stop, and the
// remaining quorum must keep serving. The inline case hides the store's
// Flusher side behind a plain storage.Store, which is what puts a
// replica on the inline path.
func TestPersistFailureFailStops(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(f *storage.File) storage.Store
	}{
		{"persister-flush", func(f *storage.File) storage.Store {
			return &flakyWAL{File: f, failFlush: true, okFlushes: 5}
		}},
		{"loop-inline", func(f *storage.File) storage.Store {
			return struct{ storage.Store }{&flakyWAL{File: f, failAccept: true, okAccepts: 5}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dataDir := t.TempDir()
			flakyID := wire.NodeID(2)
			f, err := storage.OpenFile(filepath.Join(dataDir, "flaky.wal"))
			if err != nil {
				t.Fatal(err)
			}
			c := newTestCluster(t, Config{
				Service: service.KVFactory,
				DataDir: dataDir,
				Stores:  map[wire.NodeID]storage.Store{flakyID: tc.mk(f)},
			})
			if _, err := c.WaitForLeader(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			cli, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			// Push writes until the injected failure trips; the cluster
			// must keep acking them on the surviving quorum.
			for i := 0; i < 40; i++ {
				if _, err := cli.Write(service.KVPut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
					t.Fatalf("write %d failed after storage fault: %v", i, err)
				}
			}

			rep, ok := c.Replica(flakyID)
			if !ok {
				t.Fatal("flaky replica missing from cluster")
			}
			deadline := time.Now().Add(5 * time.Second)
			for rep.Inspect(func(*core.Replica) {}) {
				if time.Now().After(deadline) {
					t.Fatal("replica with failing storage did not fail-stop")
				}
				time.Sleep(2 * time.Millisecond)
			}

			// The surviving quorum still serves.
			if _, err := cli.Write(service.KVPut("after-failstop", []byte("ok"))); err != nil {
				t.Fatalf("cluster stopped serving after one replica fail-stopped: %v", err)
			}
		})
	}
}
