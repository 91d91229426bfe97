package service

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"gridrep/internal/wire"
)

// The service contract (service.go), checked once for every shipped
// service by checkService's seeded walk and by the three Fuzz targets.
// A row is one service; the checks a row gets are the capabilities its
// instances implement, and TestCapabilityMatrix pins which those are.

// serviceRow is one service under the contract.
type serviceRow struct {
	name     string
	caps     string                   // the capabilities new's instances implement
	new      func(seed int64) Service // seed drives the service's own nondeterminism
	setup    [][]byte                 // ops building the fuzz targets' base state
	op       func(r *rand.Rand) []byte
	reads    [][]byte       // read-only ops a view answers
	mutating [][]byte       // ops a view refuses: one per mutating opcode
	ref      func() Service // a deterministic reference model, or nil
}

func serviceRows() []serviceRow {
	kv := serviceRow{
		name: "kv", caps: "txn delta view",
		new: func(int64) Service { return NewKV() },
		setup: [][]byte{KVPut("a", []byte("\x01\x00\x00\x00\x00\x00\x00\x00")),
			KVPut("b", []byte("bee")), KVPut("c", nil), KVPut("key-17", []byte("v"))},
		op: func(r *rand.Rand) []byte {
			key := fmt.Sprint("k", r.IntN(16))
			switch r.IntN(5) {
			case 0:
				return KVGet(key)
			case 1:
				return KVDelete(key)
			case 2:
				if r.IntN(8) == 0 { // an add must carry 8 bytes
					return kvOp(kvAdd, key, randBytes(r, 10))
				}
				return KVAdd(key, r.Int64N(100)-50)
			case 3:
				return garble(r, KVPut(key, randBytes(r, 12)))
			}
			return KVPut(key, randBytes(r, 12))
		},
		mutating: [][]byte{KVPut("k0", nil), KVDelete("k0"), KVAdd("k0", 1)},
		ref:      func() Service { return kvModel{} },
	}
	for i := range 16 {
		kv.reads = append(kv.reads, KVGet(fmt.Sprint("k", i)))
	}
	bare := kv // a bare Service: no capability, views through the adapter
	bare.name, bare.caps = "snapshot adapter", ""
	bare.reads = kv.reads[:4] // each adapter read restores the whole state
	bare.new = func(int64) Service { return struct{ Service }{NewKV()} }
	// The adapter refuses an op by its effect: these always change the state.
	bare.mutating = [][]byte{KVPut("view", []byte("x")), KVAdd("view", 1)}
	return []serviceRow{kv, bare, {
		name: "sched", caps: "replay view",
		new:   func(int64) Service { return NewSched() },
		setup: [][]byte{SchedSubmit("a", 1), SchedSubmit("b", 9), SchedDispatch()},
		op: func(r *rand.Rand) []byte {
			id := fmt.Sprint("j", r.IntN(6))
			switch r.IntN(5) {
			case 0:
				return SchedDispatch()
			case 1:
				return SchedComplete(id)
			case 2:
				return garble(r, SchedSubmit(id, r.Int64N(3)))
			case 3:
				return SchedStatus()
			}
			return SchedSubmit(id, r.Int64N(3))
		},
		reads:    [][]byte{SchedStatus()},
		mutating: [][]byte{SchedSubmit("x", 1), SchedDispatch(), SchedComplete("b")},
	}, {
		name: "broker", caps: "replay view",
		new:   func(seed int64) Service { return NewBroker(seed) },
		setup: [][]byte{BrokerRegister("r0", 1), BrokerRegister("r1", 1)},
		op: func(r *rand.Rand) []byte {
			name := fmt.Sprint("r", r.IntN(4))
			switch r.IntN(6) {
			case 0:
				return BrokerRegister(name, r.Int64N(4))
			case 1:
				return BrokerRelease(name)
			case 2:
				return BrokerList()
			case 3:
				if r.IntN(8) == 0 {
					return BrokerRequest(1 << 62)
				}
				return garble(r, BrokerRequest(r.IntN(5)))
			}
			return BrokerRequest(r.IntN(5))
		},
		reads:    [][]byte{BrokerList()},
		mutating: [][]byte{BrokerRegister("x", 1), BrokerRequest(1), BrokerRelease("r0")},
	}, {
		name: "noop", caps: "txn view",
		new:      func(int64) Service { return NewNoop() },
		setup:    [][]byte{NoopWriteOp},
		op:       func(r *rand.Rand) []byte { return randBytes(r, 2) },
		reads:    [][]byte{NoopReadOp},
		mutating: [][]byte{NoopWriteOp},
	}}
}

// randBytes is 0 to max random bytes.
func randBytes(r *rand.Rand, max int) []byte {
	b := make([]byte, r.IntN(max+1))
	for i := range b {
		b[i] = byte(r.Uint32())
	}
	return b
}

// garble returns op truncated, extended, with one byte changed, or
// replaced by random bytes — or, half the time, intact.
func garble(r *rand.Rand, op []byte) []byte {
	op = slices.Clone(op)
	switch r.IntN(8) {
	case 0:
		return op[:r.IntN(len(op)+1)]
	case 1:
		return append(op, byte(r.Uint32()))
	case 2:
		op[r.IntN(len(op))] = byte(r.Uint32())
	case 3:
		return randBytes(r, 8)
	}
	return op
}

// kvModel is the plain-map model the KV is checked against. Its Execute
// ignores locks, so the walk consults it only for ops the KV did not
// refuse with a conflict.
type kvModel map[string][]byte

func (m kvModel) Execute(op []byte) ([]byte, error) {
	code, k, v, err := kvParse(op)
	if err != nil {
		return nil, err
	}
	return kvApply(code, k, v,
		func(k string) ([]byte, bool) { v, ok := m[k]; return v, ok },
		func(k string, v []byte) { m[k] = v },
		func(k string) { delete(m, k) }), nil
}

func (m kvModel) Snapshot() []byte { return refSnapshot(m) }

func (m kvModel) Restore(snap []byte) error { return m.decode(snap, false) }

func (m kvModel) ApplyDelta(delta []byte) error { return m.decode(delta, true) }

// decode installs a snapshot, or applies a delta (tagged entries), the
// way the whole-map store read them: all or nothing.
func (m kvModel) decode(b []byte, delta bool) error {
	next := kvModel{}
	if delta {
		next = maps.Clone(m)
	}
	dec := wire.NewDecoder(b)
	for range dec.SliceLen() {
		if dec.Err() != nil {
			break
		}
		put := !delta || dec.Bool()
		k := dec.String()
		if put {
			next[k] = dec.Bytes8()
		} else {
			delete(next, k)
		}
	}
	if err := dec.Done(); err != nil {
		return err
	}
	clear(m)
	maps.Copy(m, next)
	return nil
}

// refSnapshot is the reference encoder: the whole-map KV's Snapshot, kept
// verbatim so the bucketed store is checked against the encoding it
// replaced, not against itself.
func refSnapshot(data map[string][]byte) []byte {
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc := wire.NewEncoder(nil)
	enc.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		enc.String(k)
		enc.Bytes8(data[k])
	}
	return enc.Bytes()
}

// capsOf names the capabilities svc implements, in serviceRow.caps order.
func capsOf(svc Service) string {
	var caps []string
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"txn", is[Transactional](svc)}, {"delta", is[Differ](svc)},
		{"replay", is[Replayer](svc)}, {"view", is[ReadViewer](svc)},
	} {
		if c.ok {
			caps = append(caps, c.name)
		}
	}
	return strings.Join(caps, " ")
}

func is[T any](v any) bool { _, ok := v.(T); return ok }

// TestCapabilityMatrix pins which capabilities each service implements
// (DESIGN.md §7 gives the reason for each absent one), and that
// AsReadViewer passes a ReadViewer through, building no scratch, while
// it adapts a service that pins no views.
func TestCapabilityMatrix(t *testing.T) {
	for _, row := range serviceRows() {
		svc := row.new(1)
		if got := capsOf(svc); got != row.caps {
			t.Errorf("%s implements %q, want %q", row.name, got, row.caps)
		}
		v := AsReadViewer(svc, func() Service {
			if is[ReadViewer](svc) {
				t.Errorf("%s: AsReadViewer built a scratch for a ReadViewer", row.name)
			}
			return row.new(2)
		})
		if native, ok := svc.(ReadViewer); ok && v != native {
			t.Errorf("%s: AsReadViewer wrapped a ReadViewer", row.name)
		}
		if _, adapted := v.(*snapshotViewer); adapted == is[ReadViewer](svc) {
			t.Errorf("%s: AsReadViewer adapted %v, want %v", row.name, adapted, !is[ReadViewer](svc))
		}
	}
}

// TestServiceConformance runs checkService over every row.
func TestServiceConformance(t *testing.T) {
	for _, row := range serviceRows() {
		t.Run(row.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				checkService(t, row, seed, 700)
			}
		})
	}
}

// outcome is what an op answered: its reply, and its error's class.
type outcome struct {
	reply string
	err   string
}

func outcomeOf(reply []byte, err error) outcome {
	o := outcome{reply: string(reply)}
	switch {
	case errors.Is(err, ErrConflict):
		o.err = "conflict"
	case errors.Is(err, ErrBadOp):
		o.err = "bad op"
	case err != nil:
		o.err = "error"
	}
	return o
}

// pin is a view and what Execute answered its reads at the pin.
type pin struct {
	view ReadView
	want []outcome
	step int
}

func (p pin) verify(reads [][]byte) error {
	for i, op := range reads {
		if got := outcomeOf(p.view.ReadExecute(op)); got != p.want[i] {
			return fmt.Errorf("view pinned at step %d answers read %x with %+v; Execute answered %+v at the pin", p.step, op, got, p.want[i])
		}
	}
	return nil
}

// openTxn is the walk's open transaction and the ops it ran.
type openTxn struct {
	ws  Workspace
	ops [][]byte
	got []outcome
}

// checkService walks row's service through steps random ops on every
// entry point the row implements, and after each step checks the
// contract:
//   - a twin (another seed) that follows each write the way a backup
//     does — Restore of the Snapshot, ApplyDelta of the delta, Replay
//     of the op and its aux — stays byte-equal, and a Replay returns
//     the reply ExecuteCapture did;
//   - Restore(Snapshot()) into a fresh instance re-encodes byte-equal;
//   - an op that returns an error leaves Snapshot byte-equal;
//   - a committed workspace equals applying its ops, an aborted one
//     leaves the state byte-equal, and Execute, Commit and CommitDelta
//     on a finished one change nothing; on one opened before a Restore
//     they fail, too;
//   - every view, pinned on the walked instance or its twin (under an
//     open workspace, too), answers every read as Execute did at the
//     pin, through every later write, refuses each mutating op with
//     ErrBadOp changing nothing, and, over the last quarter of the walk,
//     serves concurrent reads while the owner writes and re-pins
//     (meaningful under -race);
//   - with a reference model, every reply and state equal the model's.
func checkService(t *testing.T, row serviceRow, seed uint64, steps int) {
	rng := rand.New(rand.NewPCG(seed, 0x5e41))
	build := func(seed int64) ReadViewer {
		return AsReadViewer(row.new(seed), func() Service { return row.new(seed) })
	}
	s, twin := build(int64(seed)), build(int64(seed)+100)
	var ref Service
	if row.ref != nil {
		ref = row.ref()
	}
	differ, _ := s.(Differ)
	replayer, _ := s.(Replayer)
	txnl, _ := s.(Transactional)
	var txn *openTxn
	var views []pin

	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s seed %d step %d: %s", row.name, seed, step, fmt.Sprintf(format, args...))
	}
	same := func(step int, what string, a, b Service) {
		t.Helper()
		if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
			fail(step, "%s", what)
		}
	}
	answers := func(svc Service) []outcome {
		out := make([]outcome, len(row.reads))
		for i, op := range row.reads {
			out[i] = outcomeOf(svc.Execute(op))
		}
		return out
	}
	first := answers(s)
	moved, stale := false, 0 // the reads' answers changed; a view outlived a change
	// modelSays checks a reply against the model's for an op the
	// service did not refuse with a conflict (the model has no locks).
	modelSays := func(step int, op []byte, got outcome) {
		t.Helper()
		if ref == nil || got.err == "conflict" {
			return
		}
		if want := outcomeOf(ref.Execute(op)); got != want {
			fail(step, "op %x answered %+v, the model %+v", op, got, want)
		}
	}
	// finish commits or aborts the open transaction.
	finish := func(step int, pre []byte) {
		t.Helper()
		ws := txn.ws
		if rng.IntN(3) == 0 {
			ws.Abort()
			if !bytes.Equal(s.Snapshot(), pre) {
				fail(step, "Abort changed the state")
			}
		} else {
			target := ref // a committed workspace equals applying its ops
			if target == nil {
				target = build(7)
				if err := target.Restore(pre); err != nil {
					fail(step, "Restore: %v", err)
				}
			}
			for i, op := range txn.ops {
				if want := outcomeOf(target.Execute(op)); txn.got[i] != want {
					fail(step, "transaction op %x answered %+v, applied after it %+v", op, txn.got[i], want)
				}
			}
			if differ != nil && rng.IntN(2) == 0 {
				delta, err := differ.CommitDelta(ws)
				if err != nil {
					fail(step, "CommitDelta: %v", err)
				}
				if err := twin.(Differ).ApplyDelta(delta); err != nil {
					fail(step, "twin ApplyDelta of a commit: %v", err)
				}
			} else {
				if err := ws.Commit(); err != nil {
					fail(step, "Commit: %v", err)
				}
				if err := twin.Restore(s.Snapshot()); err != nil {
					fail(step, "twin Restore: %v", err)
				}
			}
			same(step, "the committed workspace differs from applying its ops", s, target)
		}
		done := s.Snapshot()
		ws.Execute(row.op(rng))
		ws.Commit()
		if differ != nil {
			differ.CommitDelta(ws)
		}
		if !bytes.Equal(s.Snapshot(), done) {
			fail(step, "a finished workspace changed the state")
		}
		txn = nil
	}

	readers := func() {}
	defer func() { readers() }()
	for step := range steps {
		if step == steps*3/4 {
			readers = readConcurrently(t, slices.Clone(views), row.reads)
		}
		pre := s.Snapshot()
		op := row.op(rng)
		var err error
		switch path := rng.IntN(12); {
		case path < 3: // Execute; the twin adopts the snapshot
			var reply []byte
			reply, err = s.Execute(op)
			modelSays(step, op, outcomeOf(reply, err))
			if err == nil && twin.Restore(s.Snapshot()) != nil {
				fail(step, "the twin refused the Snapshot")
			}
		case path < 6 && differ != nil:
			var reply, delta []byte
			reply, delta, err = differ.ExecuteDelta(op)
			modelSays(step, op, outcomeOf(reply, err))
			if err == nil && twin.(Differ).ApplyDelta(delta) != nil {
				fail(step, "the twin refused op %x's delta", op)
			}
		case path < 6 && replayer != nil:
			var reply, aux []byte
			reply, aux, err = replayer.ExecuteCapture(op)
			if err == nil {
				got, rerr := twin.(Replayer).Replay(op, aux)
				if rerr != nil || !bytes.Equal(got, reply) {
					fail(step, "Replay(%x, %x) = %x, %v; ExecuteCapture answered %x", op, aux, got, rerr, reply)
				}
			}
		case path < 9 && txnl != nil:
			if txn != nil && rng.IntN(3) == 0 {
				finish(step, pre)
				break
			}
			if txn == nil {
				ws, berr := txnl.Begin(uint64(step))
				if berr != nil {
					fail(step, "Begin: %v", berr)
				}
				txn = &openTxn{ws: ws}
			}
			txn.ops = append(txn.ops, op)
			txn.got = append(txn.got, outcomeOf(txn.ws.Execute(op)))
			if !bytes.Equal(s.Snapshot(), pre) {
				fail(step, "an open workspace's op %x changed the state", op)
			}
		case path < 10: // Restore another state
			other := build(4)
			for range rng.IntN(20) {
				other.Execute(row.op(rng))
			}
			snap := other.Snapshot()
			for _, svc := range []Service{s, twin, ref} {
				if svc != nil && svc.Restore(snap) != nil {
					fail(step, "Restore of a Snapshot refused")
				}
			}
			if txn == nil {
				break
			}
			// The workspace open across the Restore is void.
			ws := txn.ws
			if _, err := ws.Execute(row.op(rng)); err == nil {
				fail(step, "Execute on a workspace opened before a Restore succeeded")
			}
			if ws.Commit() == nil {
				fail(step, "Commit of a workspace opened before a Restore succeeded")
			}
			if differ != nil {
				if _, err := differ.CommitDelta(ws); err == nil {
					fail(step, "CommitDelta of a workspace opened before a Restore succeeded")
				}
			}
			ws.Abort()
			if !bytes.Equal(s.Snapshot(), snap) {
				fail(step, "a workspace opened before a Restore changed the restored state")
			}
			txn = nil
		default: // pin a view on the instance and on its twin
			for _, svc := range []ReadViewer{s, twin} {
				view, ok := svc.ReadView()
				if !ok {
					fail(step, "ReadView refused")
				}
				before := svc.Snapshot()
				for _, m := range row.mutating {
					if _, merr := view.ReadExecute(m); !errors.Is(merr, ErrBadOp) {
						fail(step, "the view ran mutating op %x: %v, want ErrBadOp", m, merr)
					}
				}
				if !bytes.Equal(svc.Snapshot(), before) {
					fail(step, "a refused op changed the state")
				}
				views = append(views, pin{view, answers(svc), step})
			}
			if len(views) > 8 {
				views = views[2:]
			}
		}
		if err != nil && !bytes.Equal(s.Snapshot(), pre) {
			fail(step, "op %x failed (%v) and changed the state", op, err)
		}

		same(step, "the twin diverged", s, twin)
		if ref != nil {
			same(step, "the state differs from the model's", s, ref)
		}
		if f := build(5); f.Restore(s.Snapshot()) != nil || !bytes.Equal(f.Snapshot(), s.Snapshot()) {
			fail(step, "Restore(Snapshot()) into a fresh instance does not re-encode byte-equal")
		}
		now := answers(s)
		moved = moved || !slices.Equal(now, first)
		for _, p := range views {
			if err := p.verify(row.reads); err != nil {
				fail(step, "%v", err)
			}
			if !slices.Equal(p.want, now) {
				stale++
			}
		}
	}
	if moved && stale == 0 {
		t.Fatalf("%s seed %d: no view outlived a change its reads see: the walk tests nothing", row.name, seed)
	}
}

// readConcurrently reads every view from four goroutines until the
// returned stop is called.
func readConcurrently(t *testing.T, views []pin, reads [][]byte) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, p := range views {
					if err := p.verify(reads); err != nil {
						t.Errorf("concurrent read: %v", err)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	return func() { close(done); wg.Wait() }
}

// base builds row's fuzz base state, and the model's when it has one.
func base(t testing.TB, row serviceRow, seed int64) (ReadViewer, Service) {
	s := AsReadViewer(row.new(seed), func() Service { return row.new(seed) })
	var ref Service
	if row.ref != nil {
		ref = row.ref()
	}
	for _, op := range row.setup {
		for _, svc := range []Service{s, ref} {
			if svc != nil {
				if _, err := svc.Execute(op); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return s, ref
}

// FuzzServiceOp feeds arbitrary op bytes through every entry point of
// every row — Execute, ExecuteCapture, ExecuteDelta, Workspace.Execute
// and ReadExecute — and, for a Replayer, arbitrary aux to Replay. No
// input may panic, and an input that errors leaves the state
// byte-equal. What succeeds keeps the contract: a backup following by
// delta or replay reaches the same state, a committed workspace equals
// Execute, and a view answers only what Execute answers without a
// change.
func FuzzServiceOp(f *testing.F) {
	for _, row := range serviceRows() {
		for _, op := range slices.Concat(row.mutating, row.reads) {
			f.Add(op, []byte(nil))
		}
	}
	f.Add(SchedDispatch(), []byte("a"))
	f.Add(BrokerRequest(1), []byte{1, 2, 'r', '0'})
	f.Fuzz(func(t *testing.T, op, aux []byte) {
		for _, row := range serviceRows() {
			unchanged := func(what string, svc Service, pre []byte, err error) {
				t.Helper()
				if err != nil && !bytes.Equal(svc.Snapshot(), pre) {
					t.Fatalf("%s: %s of %x failed (%v) and changed the state", row.name, what, op, err)
				}
			}
			s, _ := base(t, row, 1)
			pre := s.Snapshot()
			want, err := s.Execute(op)
			unchanged("Execute", s, pre, err)
			executed := s.Snapshot()

			if is[Replayer](s) {
				s, _ = base(t, row, 2)
				reply, capAux, err := s.(Replayer).ExecuteCapture(op)
				unchanged("ExecuteCapture", s, pre, err)
				if err == nil {
					b, _ := base(t, row, 3)
					if got, err := b.(Replayer).Replay(op, capAux); err != nil || !bytes.Equal(got, reply) || !bytes.Equal(b.Snapshot(), s.Snapshot()) {
						t.Fatalf("%s: Replay of %x, %x = %x, %v: not what ExecuteCapture did", row.name, op, capAux, got, err)
					}
				}
				s, _ = base(t, row, 4)
				_, err = s.(Replayer).Replay(op, aux)
				unchanged("Replay", s, pre, err)
			}
			if is[Differ](s) {
				s, _ = base(t, row, 2)
				_, delta, err := s.(Differ).ExecuteDelta(op)
				unchanged("ExecuteDelta", s, pre, err)
				if err == nil {
					b, _ := base(t, row, 3)
					if err := b.(Differ).ApplyDelta(delta); err != nil || !bytes.Equal(b.Snapshot(), s.Snapshot()) {
						t.Fatalf("%s: ApplyDelta of %x's delta: %v, or a different state", row.name, op, err)
					}
				}
			}
			if is[Transactional](s) {
				s, _ = base(t, row, 2)
				ws, err := s.(Transactional).Begin(1)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ws.Execute(op); err != nil {
					ws.Abort()
					unchanged("Workspace.Execute", s, pre, err)
				} else if err := ws.Commit(); err != nil || !bytes.Equal(s.Snapshot(), executed) {
					t.Fatalf("%s: a workspace committing %x: %v, or not what Execute did", row.name, op, err)
				}
			}
			s, _ = base(t, row, 2)
			view, _ := s.ReadView()
			if got, err := view.ReadExecute(op); err == nil {
				if !bytes.Equal(got, want) || !bytes.Equal(executed, pre) {
					t.Fatalf("%s: the view ran %x, which Execute answers %x changing the state %v", row.name, op, want, !bytes.Equal(executed, pre))
				}
			}
			if !bytes.Equal(s.Snapshot(), pre) {
				t.Fatalf("%s: ReadExecute of %x changed the state", row.name, op)
			}
		}
	})
}

// FuzzServiceRestore: Restore either installs a state that re-encodes
// byte-equal through a fresh instance — for the KV, exactly the encoded
// pairs, later duplicates winning, as the reference decoder reads them —
// or returns an error and leaves the state byte-equal. It never panics.
func FuzzServiceRestore(f *testing.F) {
	for _, row := range serviceRows() {
		s, _ := base(f, row, 1)
		f.Add(s.Snapshot())
	}
	f.Fuzz(func(t *testing.T, snap []byte) {
		for _, row := range serviceRows() {
			s, ref := base(t, row, 1)
			pre := s.Snapshot()
			err := s.Restore(snap)
			if ref != nil {
				if rerr := ref.Restore(snap); (err == nil) != (rerr == nil) {
					t.Fatalf("%s: Restore err = %v, reference decoder err = %v", row.name, err, rerr)
				}
				if !bytes.Equal(s.Snapshot(), ref.Snapshot()) {
					t.Fatalf("%s: Restore differs from the reference decoder", row.name)
				}
			}
			if err != nil {
				if !bytes.Equal(s.Snapshot(), pre) {
					t.Fatalf("%s: refused snapshot (%v) changed the state", row.name, err)
				}
				continue
			}
			f := row.new(2)
			if err := f.Restore(s.Snapshot()); err != nil || !bytes.Equal(f.Snapshot(), s.Snapshot()) {
				t.Fatalf("%s: the restored state does not round-trip: %v", row.name, err)
			}
		}
	})
}

// FuzzServiceApplyDelta: for every Differ row, ApplyDelta either applies
// the whole delta — the state then equals the reference decoding applied
// to the model — or returns an error and leaves the state byte-equal. It
// never panics.
func FuzzServiceApplyDelta(f *testing.F) {
	s, _ := base(f, serviceRows()[0], 1)
	_, delta, _ := s.(Differ).ExecuteDelta(KVAdd("a", 1))
	f.Add(delta)
	f.Fuzz(func(t *testing.T, delta []byte) {
		for _, row := range serviceRows() {
			s, ref := base(t, row, 1)
			d, ok := s.(Differ)
			if !ok {
				continue
			}
			pre := s.Snapshot()
			err := d.ApplyDelta(delta)
			if rerr := ref.(interface{ ApplyDelta([]byte) error }).ApplyDelta(delta); (err == nil) != (rerr == nil) {
				t.Fatalf("%s: ApplyDelta err = %v, reference decoder err = %v", row.name, err, rerr)
			}
			if err != nil && !bytes.Equal(s.Snapshot(), pre) {
				t.Fatalf("%s: refused delta (%v) changed the state", row.name, err)
			}
			if !bytes.Equal(s.Snapshot(), ref.Snapshot()) {
				t.Fatalf("%s: the applied delta differs from the reference", row.name)
			}
		}
	})
}
