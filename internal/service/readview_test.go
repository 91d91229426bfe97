package service

import (
	"errors"
	"fmt"
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

// TestKVReadViewRecordsLocks: a view pinned while a transaction holds
// locks answers a read of a locked key with the §3.5 conflict, as
// Execute does, and the committed value of any other key. The view keeps
// the lock table of its pin; a pin after the commit has none.
func TestKVReadViewRecordsLocks(t *testing.T) {
	s := NewKV()
	s.Execute(KVPut("free", []byte("f")))
	w, err := s.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Execute(KVPut("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	view, ok := s.ReadView()
	if !ok {
		t.Fatal("ReadView refused under transaction locks")
	}
	if _, err := view.ReadExecute(KVGet("k")); !errors.Is(err, ErrConflict) {
		t.Fatalf("read of a locked key through the view: err = %v, want ErrConflict", err)
	}
	if res, err := view.ReadExecute(KVGet("free")); err != nil || string(res) != string(kvReply([]byte("f"), true)) {
		t.Fatalf("read of an unlocked key through the view: %q, %v", res, err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := view.ReadExecute(KVGet("k")); !errors.Is(err, ErrConflict) {
		t.Fatalf("the pinned view lost its lock table: err = %v", err)
	}
	after, _ := s.ReadView()
	if res, err := after.ReadExecute(KVGet("k")); err != nil || string(res) != string(kvReply([]byte("v"), true)) {
		t.Fatalf("read after the commit: %q, %v", res, err)
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

// TestAsReadViewerPassthrough: a service that pins its own views is
// returned as is, and no scratch instance is built for it.
func TestAsReadViewerPassthrough(t *testing.T) {
	kv := NewKV()
	if AsReadViewer(kv, func() Service { t.Fatal("scratch built for a ReadViewer"); return nil }) != ReadViewer(kv) {
		t.Fatal("a ReadViewer must not be wrapped")
	}
}

// TestReadViewContract is the ReadView contract, once per service that
// implements it and once for AsReadViewer's adapter around a service
// that does not: a view answers what Execute answered when it was
// pinned, keeps answering that after every later write path, rejects
// every mutating opcode with ErrBadOp and changes nothing doing so, and
// serves concurrent ReadExecute calls while the owner writes and
// re-pins (meaningful under -race; make race runs it).
func TestReadViewContract(t *testing.T) {
	brokerPick := func(name string) []byte { // a BrokerRequest reply selecting name
		b := NewBroker(1)
		b.Execute(BrokerRegister(name, 1))
		res, _ := b.Execute(BrokerRequest(1))
		return res
	}
	for _, c := range []struct {
		name     string
		svc      ReadViewer
		setup    [][]byte           // writes before the pin
		later    func(s ReadViewer) // writes after it, through every write path
		reads    [][]byte           // read-only ops
		mutating [][]byte           // one op per mutating opcode
		blind    bool               // reads observe no state
		churn    func(i int) []byte // the i-th write of the concurrent phase
	}{
		{"kv", NewKV(),
			[][]byte{KVPut("a", []byte("1")), KVPut("b", []byte("2"))},
			func(s ReadViewer) {
				kv := s.(*KV)
				kv.Execute(KVPut("a", []byte("x")))
				kv.ExecuteDelta(KVDelete("b"))
				w, _ := kv.Begin(1)
				w.Execute(KVAdd("c", 3))
				kv.CommitDelta(w)
			},
			[][]byte{KVGet("a"), KVGet("b"), KVGet("c")},
			[][]byte{KVPut("a", []byte("y")), KVDelete("a"), KVAdd("a", 1)}, false,
			func(i int) []byte { return KVAdd(fmt.Sprint("k", i%8), 1) }},
		{"sched", NewSched(),
			[][]byte{SchedSubmit("a", 1), SchedSubmit("b", 2)},
			func(s ReadViewer) {
				sc := s.(*Sched)
				sc.Execute(SchedDispatch())
				sc.Replay(SchedDispatch(), []byte("a"))
				sc.Execute(SchedComplete("b"))
				sc.Execute(SchedSubmit("c", 3))
			},
			[][]byte{SchedStatus()},
			[][]byte{SchedSubmit("x", 1), SchedDispatch(), SchedComplete("a")}, false,
			func(i int) []byte {
				if i%2 == 0 {
					return SchedSubmit(fmt.Sprint("j", i), int64(i%3))
				}
				return SchedDispatch()
			}},
		{"broker", NewBroker(7),
			[][]byte{BrokerRegister("n1", 4), BrokerRequest(1)},
			func(s ReadViewer) {
				b := s.(*Broker)
				b.Execute(BrokerRequest(1))
				b.Replay(BrokerRequest(1), brokerPick("n1"))
				b.Execute(BrokerRelease("n1"))
				b.Execute(BrokerRegister("n2", 2))
			},
			[][]byte{BrokerList()},
			[][]byte{BrokerRegister("x", 1), BrokerRequest(1), BrokerRelease("n1")}, false,
			func(i int) []byte {
				if i%2 == 0 {
					return BrokerRegister(fmt.Sprint("r", i), 2)
				}
				return BrokerRequest(1)
			}},
		{"snapshot adapter", AsReadViewer(struct{ Service }{NewKV()}, KVFactory),
			[][]byte{KVPut("a", []byte("1")), KVPut("b", []byte("2"))},
			func(s ReadViewer) { // a bare Service writes by Execute and Restore
				s.Execute(KVPut("a", []byte("x")))
				s.Execute(KVDelete("b"))
				other := NewKV()
				other.Restore(s.Snapshot())
				other.Execute(KVAdd("c", 3))
				s.Restore(other.Snapshot())
			},
			[][]byte{KVGet("a"), KVGet("b"), KVGet("c")},
			[][]byte{KVPut("a", []byte("y")), KVDelete("a"), KVAdd("c", 1)}, false,
			func(i int) []byte { return KVAdd(fmt.Sprint("k", i%8), 1) }},
		{"noop", NewNoop(), [][]byte{NoopWriteOp},
			func(s ReadViewer) { s.Execute(NoopWriteOp) },
			[][]byte{NoopReadOp}, [][]byte{NoopWriteOp}, true,
			func(int) []byte { return NoopWriteOp }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := c.svc
			for _, op := range c.setup {
				if _, err := s.Execute(op); err != nil {
					t.Fatal(err)
				}
			}
			want := make([][]byte, len(c.reads))
			for i, op := range c.reads {
				want[i], _ = s.Execute(op)
			}
			view, ok := s.ReadView()
			if !ok {
				t.Fatal("ReadView refused")
			}
			answers := func(v ReadView, what string) {
				t.Helper()
				for i, op := range c.reads {
					if res, err := v.ReadExecute(op); err != nil || string(res) != string(want[i]) {
						t.Fatalf("%s: read %x answered %q, %v; Execute answered %q at the pin", what, op, res, err, want[i])
					}
				}
			}
			answers(view, "at the pin")
			for _, op := range c.mutating {
				if _, err := view.ReadExecute(op); !errors.Is(err, ErrBadOp) {
					t.Fatalf("mutating op %x on the view: err = %v, want ErrBadOp", op, err)
				}
			}
			answers(view, "after mutating ops were refused")
			for i, op := range c.reads {
				if res, _ := s.Execute(op); string(res) != string(want[i]) {
					t.Fatalf("a refused op changed the service: read %x = %q, was %q", op, res, want[i])
				}
			}

			c.later(s)
			moved := false
			for i, op := range c.reads {
				res, _ := s.Execute(op)
				moved = moved || string(res) != string(want[i])
			}
			if !moved && !c.blind {
				t.Fatal("the later writes changed nothing a read sees: the case tests nothing")
			}
			answers(view, "after later writes")

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						for j, op := range c.reads {
							if res, err := view.ReadExecute(op); err != nil || string(res) != string(want[j]) {
								t.Errorf("concurrent read %x answered %q, %v", op, res, err)
								return
							}
						}
					}
				}()
			}
			for i := 0; i < 100; i++ { // the owner keeps writing and re-pinning
				if _, err := s.Execute(c.churn(i)); err != nil {
					t.Error(err)
				}
				if v, ok := s.ReadView(); ok {
					for _, op := range c.reads {
						v.ReadExecute(op)
					}
				}
			}
			wg.Wait()
		})
	}
}
