package service

import (
	"errors"
	"sync"
	"testing"
)

// TestKVReadViewImmutable pins a view, mutates the base state through
// every write path, and checks the view still answers from the pinned
// state — the DESIGN.md §14 contract that lets read execution run off
// the event loop while writes proceed.
func TestKVReadViewImmutable(t *testing.T) {
	s := NewKV()
	s.Execute(KVPut("a", []byte("1")))
	s.Execute(KVPut("b", []byte("2")))

	view, ok := s.ReadView()
	if !ok {
		t.Fatal("quiescent KV must pin a view")
	}
	// Mutate through Execute, ExecuteDelta, ApplyDelta, and a committed
	// transaction — all the paths that write the base map.
	s.Execute(KVPut("a", []byte("changed")))
	s.Execute(KVDelete("b"))
	if _, delta, err := s.ExecuteDelta(KVPut("c", []byte("3"))); err != nil || delta == nil {
		t.Fatalf("delta: %v", err)
	}
	w, err := s.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	w.Execute(KVPut("d", []byte("4")))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	res, err := view.ReadExecute(KVGet("a"))
	if err != nil {
		t.Fatal(err)
	}
	if v, found := KVReply(res); !found || string(v) != "1" {
		t.Fatalf("view saw mutation: a = %q,%v", v, found)
	}
	res, _ = view.ReadExecute(KVGet("b"))
	if _, found := KVReply(res); !found {
		t.Fatal("view must still see deleted key b")
	}
	for _, key := range []string{"c", "d"} {
		res, _ = view.ReadExecute(KVGet(key))
		if _, found := KVReply(res); found {
			t.Fatalf("view must not see post-pin key %q", key)
		}
	}
	// The base, meanwhile, sees everything.
	res, _ = s.Execute(KVGet("a"))
	if v, _ := KVReply(res); string(v) != "changed" {
		t.Fatalf("base state lost its write: a = %q", v)
	}
}

// TestKVReadViewRefusedUnderLocks checks the pin refusal: a frozen view
// cannot honor the §3.5 lock-conflict semantics, so ReadView must
// decline while any transaction holds locks and resume once they drain.
func TestKVReadViewRefusedUnderLocks(t *testing.T) {
	s := NewKV()
	w, err := s.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Execute(KVPut("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ReadView(); ok {
		t.Fatal("ReadView must refuse while transaction locks are held")
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ReadView(); !ok {
		t.Fatal("ReadView must pin again once locks drain")
	}
}

// TestKVReadViewRejectsMutations: a view is read-only; every mutating
// opcode must fail with ErrBadOp and leave both view and base intact.
func TestKVReadViewRejectsMutations(t *testing.T) {
	s := NewKV()
	s.Execute(KVPut("k", []byte("v")))
	view, ok := s.ReadView()
	if !ok {
		t.Fatal("pin failed")
	}
	for _, op := range [][]byte{KVPut("k", []byte("x")), KVDelete("k"), KVAdd("k", 1)} {
		if _, err := view.ReadExecute(op); !errors.Is(err, ErrBadOp) {
			t.Fatalf("mutating op on view: err = %v, want ErrBadOp", err)
		}
	}
	res, _ := s.Execute(KVGet("k"))
	if v, _ := KVReply(res); string(v) != "v" {
		t.Fatalf("base mutated through view: k = %q", v)
	}
}

// TestKVReadViewConcurrent hammers pinned views from many goroutines
// while the base keeps writing and re-pinning — the actual shape of the
// parallel read path, meaningful chiefly under -race.
func TestKVReadViewConcurrent(t *testing.T) {
	s := NewKV()
	s.Execute(KVPut("k", []byte("v0")))

	var wg sync.WaitGroup
	views := make(chan ReadView, 64)
	wg.Add(1)
	go func() { // writer + pinner: the event loop's role
		defer wg.Done()
		defer close(views)
		for i := 0; i < 200; i++ {
			s.Execute(KVAdd("ctr", 1))
			if view, ok := s.ReadView(); ok {
				select {
				case views <- view:
				default:
				}
			}
		}
	}()
	for r := 0; r < 4; r++ { // readers: the worker pool's role
		wg.Add(1)
		go func() {
			defer wg.Done()
			for view := range views {
				res, err := view.ReadExecute(KVGet("k"))
				if err != nil {
					t.Error(err)
					return
				}
				if v, found := KVReply(res); !found || string(v) != "v0" {
					t.Errorf("k = %q,%v", v, found)
					return
				}
				view.ReadExecute(KVGet("ctr"))
			}
		}()
	}
	wg.Wait()
}

// TestKVReadViewSurvivesRestore: Restore swaps in new buckets; a view
// pinned beforehand must keep answering from the pre-restore state.
func TestKVReadViewSurvivesRestore(t *testing.T) {
	s := NewKV()
	s.Execute(KVPut("k", []byte("old")))
	view, ok := s.ReadView()
	if !ok {
		t.Fatal("pin failed")
	}
	other := NewKV()
	other.Execute(KVPut("k", []byte("new")))
	if err := s.Restore(other.Snapshot()); err != nil {
		t.Fatal(err)
	}
	res, _ := view.ReadExecute(KVGet("k"))
	if v, _ := KVReply(res); string(v) != "old" {
		t.Fatalf("view leaked restored state: k = %q", v)
	}
	res, _ = s.Execute(KVGet("k"))
	if v, _ := KVReply(res); string(v) != "new" {
		t.Fatalf("restore lost: k = %q", v)
	}
}

// TestNoopReadView: the no-op service pins trivially and keeps the
// read/op validation of its Execute path.
func TestNoopReadView(t *testing.T) {
	n := NewNoop()
	view, ok := n.ReadView()
	if !ok {
		t.Fatal("noop must always pin")
	}
	if _, err := view.ReadExecute(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := view.ReadExecute([]byte{1}); !errors.Is(err, ErrBadOp) {
		t.Fatalf("non-empty op: err = %v, want ErrBadOp", err)
	}
}
