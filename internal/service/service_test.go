package service

import (
	"bytes"
	"errors"
	"testing"
)

func TestNoopReadWrite(t *testing.T) {
	n := NewNoop()
	if _, err := n.Execute(NoopReadOp); err != nil {
		t.Fatal(err)
	}
	if n.Version() != 0 {
		t.Fatal("read must not mutate")
	}
	if _, err := n.Execute(NoopWriteOp); err != nil {
		t.Fatal(err)
	}
	if n.Version() != 1 {
		t.Fatal("write must bump version")
	}
}

func TestNoopSnapshotRestore(t *testing.T) {
	a := NewNoop()
	for i := 0; i < 5; i++ {
		a.Execute(NoopWriteOp)
	}
	b := NewNoop()
	if err := b.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if b.Version() != 5 {
		t.Fatalf("restored version = %d", b.Version())
	}
	if err := b.Restore([]byte{1, 2}); err == nil {
		t.Fatal("short snapshot must be rejected")
	}
}

func TestNoopConcurrentTxns(t *testing.T) {
	n := NewNoop()
	w1, err := n.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := n.Begin(2)
	if err != nil {
		t.Fatalf("noop transactions must admit concurrency: %v", err)
	}
	w1.Execute(NoopWriteOp)
	w2.Execute(NoopWriteOp)
	w2.Execute(NoopWriteOp)
	if n.Version() != 0 {
		t.Fatal("uncommitted txn ops must not touch base state")
	}
	w1.Commit()
	w2.Abort()
	if n.Version() != 1 {
		t.Fatalf("version = %d: commit must apply, abort must not", n.Version())
	}
}

func TestKVBasicOps(t *testing.T) {
	s := NewKV()
	if res, err := s.Execute(KVPut("k", []byte("v"))); err != nil || res == nil {
		t.Fatalf("put: %v", err)
	}
	res, err := s.Execute(KVGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	v, found := KVReply(res)
	if !found || string(v) != "v" {
		t.Fatalf("get = %q,%v", v, found)
	}
	res, _ = s.Execute(KVDelete("k"))
	if _, found := KVReply(res); !found {
		t.Fatal("delete of existing key must report found")
	}
	res, _ = s.Execute(KVGet("k"))
	if _, found := KVReply(res); found {
		t.Fatal("get after delete must miss")
	}
	res, _ = s.Execute(KVDelete("k"))
	if _, found := KVReply(res); found {
		t.Fatal("delete of missing key must report not-found")
	}
}

func TestKVAdd(t *testing.T) {
	s := NewKV()
	res, err := s.Execute(KVAdd("acct", 100))
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := KVInt(res); !ok || n != 100 {
		t.Fatalf("add = %d,%v", n, ok)
	}
	res, _ = s.Execute(KVAdd("acct", -30))
	if n, _ := KVInt(res); n != 70 {
		t.Fatalf("add result = %d, want 70", n)
	}
}

func TestKVBadOps(t *testing.T) {
	s := NewKV()
	for _, op := range [][]byte{nil, {99}, {0}, []byte("garbage")} {
		if _, err := s.Execute(op); err == nil {
			t.Errorf("op %v accepted", op)
		}
	}
}

func TestKVIsWriteOp(t *testing.T) {
	if IsWriteOp(KVGet("k")) {
		t.Error("get classified as write")
	}
	for _, op := range [][]byte{KVPut("k", nil), KVDelete("k"), KVAdd("k", 1)} {
		if !IsWriteOp(op) {
			t.Error("mutating op classified as read")
		}
	}
	if IsWriteOp(nil) {
		t.Error("empty op classified as write")
	}
}

func TestKVSnapshotRestore(t *testing.T) {
	a := NewKV()
	a.Execute(KVPut("x", []byte("1")))
	a.Execute(KVPut("y", []byte("2")))
	snap := a.Snapshot()
	b := NewKV()
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("restored %d keys", b.Len())
	}
	res, _ := b.Execute(KVGet("y"))
	if v, _ := KVReply(res); string(v) != "2" {
		t.Fatalf("restored value = %q", v)
	}
	// Snapshot must be deterministic.
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatal("snapshots of equal states differ")
	}
	if err := b.Restore([]byte{0xff, 0x01}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestKVTxnIsolationAndCommit(t *testing.T) {
	s := NewKV()
	s.Execute(KVPut("a", []byte("base")))
	w, _ := s.Begin(1)
	w.Execute(KVPut("a", []byte("txn")))
	w.Execute(KVPut("b", []byte("new")))

	// Base state unchanged while the txn is open... but reads inside the
	// workspace see the overlay.
	res, _ := w.Execute(KVGet("a"))
	if v, _ := KVReply(res); string(v) != "txn" {
		t.Fatalf("workspace read = %q, want overlay value", v)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Execute(KVGet("a"))
	if v, _ := KVReply(res); string(v) != "txn" {
		t.Fatal("commit did not apply overlay")
	}
	res, _ = s.Execute(KVGet("b"))
	if _, found := KVReply(res); !found {
		t.Fatal("commit lost new key")
	}
}

func TestKVTxnAbortRollsBack(t *testing.T) {
	s := NewKV()
	s.Execute(KVPut("a", []byte("base")))
	w, _ := s.Begin(1)
	w.Execute(KVPut("a", []byte("txn")))
	w.Execute(KVDelete("a"))
	w.Abort()
	res, _ := s.Execute(KVGet("a"))
	if v, _ := KVReply(res); string(v) != "base" {
		t.Fatalf("abort leaked: a = %q", v)
	}
	// Locks must be released.
	if _, err := s.Execute(KVPut("a", []byte("after"))); err != nil {
		t.Fatalf("lock leaked after abort: %v", err)
	}
}

func TestKVTxnConflict(t *testing.T) {
	s := NewKV()
	w1, _ := s.Begin(1)
	w2, _ := s.Begin(2)
	if _, err := w1.Execute(KVPut("k", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	_, err := w2.Execute(KVPut("k", []byte("2")))
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting txn op returned %v, want ErrConflict", err)
	}
	// Disjoint keys proceed concurrently.
	if _, err := w2.Execute(KVPut("other", []byte("2"))); err != nil {
		t.Fatalf("disjoint key conflicted: %v", err)
	}
	// A non-transactional write on a locked key conflicts too.
	if _, err := s.Execute(KVPut("k", []byte("x"))); !errors.Is(err, ErrConflict) {
		t.Fatalf("singleton op on locked key returned %v", err)
	}
	w1.Commit()
	w2.Commit()
	if _, err := s.Execute(KVPut("k", []byte("x"))); err != nil {
		t.Fatalf("locks not released after commit: %v", err)
	}
}

func TestKVTxnDeleteVisibility(t *testing.T) {
	s := NewKV()
	s.Execute(KVPut("k", []byte("v")))
	w, _ := s.Begin(1)
	w.Execute(KVDelete("k"))
	res, _ := w.Execute(KVGet("k"))
	if _, found := KVReply(res); found {
		t.Fatal("workspace must see its own delete")
	}
	w.Commit()
	res, _ = s.Execute(KVGet("k"))
	if _, found := KVReply(res); found {
		t.Fatal("committed delete lost")
	}
}

func TestKVDuplicateTxnID(t *testing.T) {
	s := NewKV()
	s.Begin(7)
	if _, err := s.Begin(7); !errors.Is(err, ErrConflict) {
		t.Fatal("duplicate txn id admitted")
	}
}

func TestBrokerAllocateRelease(t *testing.T) {
	b := NewBroker(42)
	b.Execute(BrokerRegister("a", 2))
	b.Execute(BrokerRegister("b", 2))
	res, err := b.Execute(BrokerRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := BrokerSelection(res)
	if err != nil || len(sel) != 3 {
		t.Fatalf("selection = %v, %v", sel, err)
	}
	usedA, _ := b.Load("a")
	usedB, _ := b.Load("b")
	if usedA+usedB != 3 {
		t.Fatalf("allocated %d+%d, want 3 total", usedA, usedB)
	}
	// Power-of-two-choices with 3 picks over capacity-2 nodes cannot
	// put all 3 on one resource (capacity bound).
	if usedA > 2 || usedB > 2 {
		t.Fatal("capacity exceeded")
	}
	if _, err := b.Execute(BrokerRequest(2)); err == nil {
		t.Fatal("over-allocation must fail")
	}
	if _, err := b.Execute(BrokerRelease(sel[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Execute(BrokerRelease("missing")); err == nil {
		t.Fatal("release of unknown resource must fail")
	}
}

func TestBrokerNondeterminism(t *testing.T) {
	// Two replicas with different seeds, same request sequence, may
	// diverge — the motivating problem of §2. With 8 resources and 6
	// picks the probability of identical selections across 20 rounds is
	// negligible.
	b1, b2 := NewBroker(1), NewBroker(2)
	for i := 0; i < 8; i++ {
		op := BrokerRegister(string(rune('a'+i)), 10)
		b1.Execute(op)
		b2.Execute(op)
	}
	same := true
	for i := 0; i < 20 && same; i++ {
		r1, _ := b1.Execute(BrokerRequest(6))
		r2, _ := b2.Execute(BrokerRequest(6))
		if !bytes.Equal(r1, r2) {
			same = false
		}
	}
	if same {
		t.Fatal("independent replicas never diverged; service is not exercising nondeterminism")
	}
}

func TestBrokerLoadBalance(t *testing.T) {
	b := NewBroker(7)
	for i := 0; i < 4; i++ {
		b.Execute(BrokerRegister(string(rune('a'+i)), 100))
	}
	b.Execute(BrokerRequest(200))
	// Power-of-two-choices keeps the spread tight: no resource should
	// be at capacity while another is nearly idle.
	for i := 0; i < 4; i++ {
		used, _ := b.Load(string(rune('a' + i)))
		if used < 20 || used > 80 {
			t.Fatalf("resource %c load %d badly balanced", 'a'+i, used)
		}
	}
}

func TestBrokerSnapshotRestore(t *testing.T) {
	a := NewBroker(1)
	a.Execute(BrokerRegister("x", 5))
	a.Execute(BrokerRequest(2))
	b := NewBroker(99) // different seed must not matter for state
	if err := b.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatal("restored broker state differs")
	}
	used, cap := b.Load("x")
	if used != 2 || cap != 5 {
		t.Fatalf("restored load = %d/%d", used, cap)
	}
}

func TestBrokerListAndClassify(t *testing.T) {
	b := NewBroker(1)
	b.Execute(BrokerRegister("x", 5))
	res, err := b.Execute(BrokerList())
	if err != nil || string(res) != "x 0/5\n" {
		t.Fatalf("list = %q, %v", res, err)
	}
	if BrokerIsWrite(BrokerList()) {
		t.Error("list classified as write")
	}
	if !BrokerIsWrite(BrokerRequest(1)) {
		t.Error("request classified as read")
	}
}

func TestSchedPriorityAndFCFS(t *testing.T) {
	s := NewSched()
	s.Execute(SchedSubmit("low1", 1))
	s.Execute(SchedSubmit("low2", 1))
	s.Execute(SchedSubmit("high", 9))
	// Priority overrides FCFS.
	res, _ := s.Execute(SchedDispatch())
	if string(res) != "high" {
		t.Fatalf("dispatched %q, want high", res)
	}
	// FCFS among equal priorities.
	res, _ = s.Execute(SchedDispatch())
	if string(res) != "low1" {
		t.Fatalf("dispatched %q, want low1 (FCFS)", res)
	}
	res, _ = s.Execute(SchedDispatch())
	if string(res) != "low2" {
		t.Fatalf("dispatched %q, want low2", res)
	}
	// Empty queue dispatch returns empty.
	res, err := s.Execute(SchedDispatch())
	if err != nil || len(res) != 0 {
		t.Fatalf("empty dispatch = %q, %v", res, err)
	}
}

// TestSchedTimingNondeterminism reproduces the §2 scenario: job A arrives
// at t1, job B (higher priority) at t2 > t1. A scheduler examining the
// queue between t1 and t2 selects A; after t2 it selects B. The outcome
// depends on execution timing, not on the request set.
func TestSchedTimingNondeterminism(t *testing.T) {
	fast := NewSched()
	fast.Execute(SchedSubmit("A", 1))
	fastPick, _ := fast.Execute(SchedDispatch()) // examines before B arrives
	fast.Execute(SchedSubmit("B", 9))

	slow := NewSched()
	slow.Execute(SchedSubmit("A", 1))
	slow.Execute(SchedSubmit("B", 9))
	slowPick, _ := slow.Execute(SchedDispatch()) // examines after B arrives

	if string(fastPick) != "A" || string(slowPick) != "B" {
		t.Fatalf("fast=%q slow=%q; want A vs B divergence", fastPick, slowPick)
	}
}

func TestSchedCompleteAndStatus(t *testing.T) {
	s := NewSched()
	s.Execute(SchedSubmit("j1", 1))
	s.Execute(SchedDispatch())
	q, r := s.Counts()
	if q != 0 || r != 1 {
		t.Fatalf("counts = %d,%d", q, r)
	}
	res, _ := s.Execute(SchedStatus())
	if string(res) != "j1 running\n" {
		t.Fatalf("status = %q", res)
	}
	if _, err := s.Execute(SchedComplete("j1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(SchedComplete("j1")); err == nil {
		t.Fatal("double complete must fail")
	}
	if _, err := s.Execute(SchedSubmit("j1", 1)); err != nil {
		t.Fatalf("job id must be reusable after completion: %v", err)
	}
	if _, err := s.Execute(SchedSubmit("j1", 1)); err == nil {
		t.Fatal("duplicate queued job admitted")
	}
}

func TestSchedSnapshotRestore(t *testing.T) {
	a := NewSched()
	a.Execute(SchedSubmit("x", 3))
	a.Execute(SchedSubmit("y", 1))
	a.Execute(SchedDispatch())
	b := NewSched()
	if err := b.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatal("restored scheduler state differs")
	}
	// FCFS stamps must survive: submitting to the restored replica must
	// order after the existing jobs.
	b.Execute(SchedSubmit("z", 1))
	res, _ := b.Execute(SchedDispatch())
	if string(res) != "y" {
		t.Fatalf("dispatched %q, want y (older arrival)", res)
	}
}

func TestSchedClassify(t *testing.T) {
	if SchedIsWrite(SchedStatus()) {
		t.Error("status classified as write")
	}
	if !SchedIsWrite(SchedDispatch()) {
		t.Error("dispatch classified as read — it mutates the queue")
	}
}

func TestSchedBadOps(t *testing.T) {
	s := NewSched()
	for _, op := range [][]byte{nil, {0}, {77}} {
		if _, err := s.Execute(op); err == nil {
			t.Errorf("bad op %v accepted", op)
		}
	}
}
