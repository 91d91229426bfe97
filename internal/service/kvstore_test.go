package service

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand/v2"
	"runtime"
	"sort"
	"testing"

	"gridrep/internal/wire"
)

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

// kvGoldenStore builds a small fixed store through every write path.
func kvGoldenStore(t *testing.T) *KV {
	t.Helper()
	s := NewKV()
	for i := 0; i < 12; i++ {
		mustExec(t, s, KVPut(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%d", i*i))))
	}
	mustExec(t, s, KVDelete("k03"))
	mustExec(t, s, KVAdd("ctr", 41))
	mustExec(t, s, KVAdd("ctr", 1))
	mustExec(t, s, KVPut("", []byte("empty key")))
	mustExec(t, s, KVPut("nil", nil))
	if _, _, err := s.ExecuteDelta(KVPut("z", []byte("delta"))); err != nil {
		t.Fatal(err)
	}
	w, err := s.Begin(9)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, w, KVPut("k00", []byte("txn")))
	mustExec(t, w, KVDelete("k11"))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

func mustExec(t testing.TB, s interface {
	Execute([]byte) ([]byte, error)
}, op []byte) []byte {
	t.Helper()
	res, err := s.Execute(op)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// kvGoldenHex is kvGoldenStore's snapshot as the whole-map KV encoded it.
const kvGoldenHex = "0e0009656d707479206b657903637472082a00000000000000036b30300374786e036b3031027631036b3032027634036b303403763136036b303503763235036b303603763336036b303703763439036b303803763634036b303903763831036b31300476313030036e696c00017a0564656c7461"

// TestKVSnapshotGolden: the snapshot encoding is a wire format (catch-up
// and the durable snapshot carry it), so the bucketed store must emit the
// whole-map store's bytes exactly.
func TestKVSnapshotGolden(t *testing.T) {
	s := kvGoldenStore(t)
	snap := s.Snapshot()
	if got := hex.EncodeToString(snap); got != kvGoldenHex {
		t.Fatalf("snapshot drifted from the golden:\n got %s\nwant %s", got, kvGoldenHex)
	}
	r := NewKV()
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Snapshot(), snap) {
		t.Fatal("restore of the golden does not re-encode to it")
	}
}

// kvModel is the plain-map model the bucketed store is checked against.
type kvModel map[string][]byte

// pinnedView is a view with the model state of its generation.
type pinnedView struct {
	view  ReadView
	state kvModel
	step  int
}

// TestKVDifferential runs a seeded random walk over every write path —
// Execute, ExecuteDelta, ApplyDelta (valid and truncated), transaction
// commits and aborts, Restore — pinning views at random generations,
// and checks the store against a plain map after every step: every view
// keeps answering its own generation, and Snapshot equals the reference
// encoder's bytes.
func TestKVDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { kvRandomWalk(t, seed, 1500) })
	}
}

func kvRandomWalk(t *testing.T, seed uint64, steps int) {
	rng := rand.New(rand.NewPCG(seed, 0x6b76))
	const nkeys = 700 // a few keys per bucket, some buckets empty
	key := func() string { return fmt.Sprintf("key-%d", rng.IntN(nkeys)) }
	value := func() []byte {
		if rng.IntN(8) == 0 {
			return nil
		}
		v := make([]byte, 1+rng.IntN(24))
		for i := range v {
			v[i] = byte(rng.Uint32())
		}
		return v
	}
	s, model := NewKV(), kvModel{}
	var views []pinnedView

	get := func(m kvModel, k string) []byte {
		v, ok := m[k]
		return kvReply(v, ok)
	}
	apply := func(m kvModel, op []byte) []byte { // the model's Execute
		code, k, v, err := kvParse(op)
		if err != nil {
			t.Fatal(err)
		}
		return kvApply(code, k, v,
			func(k string) ([]byte, bool) { v, ok := m[k]; return v, ok },
			func(k string, v []byte) { m[k] = v },
			func(k string) { delete(m, k) })
	}
	randOp := func() []byte {
		switch rng.IntN(4) {
		case 0:
			return KVGet(key())
		case 1:
			return KVDelete(key())
		case 2:
			return KVAdd(key(), rng.Int64N(100)-50)
		}
		return KVPut(key(), value())
	}
	check := func(step int) {
		if got, want := s.Snapshot(), refSnapshot(model); !bytes.Equal(got, want) {
			t.Fatalf("step %d: snapshot differs from the reference encoder", step)
		}
		if s.Len() != len(model) {
			t.Fatalf("step %d: Len %d, model %d", step, s.Len(), len(model))
		}
		for _, p := range views {
			for i := 0; i < 40; i++ {
				k := key()
				res, err := p.view.ReadExecute(KVGet(k))
				if err != nil {
					t.Fatal(err)
				}
				if want := get(p.state, k); !bytes.Equal(res, want) {
					t.Fatalf("step %d: view pinned at step %d answers %q = %x, want %x", step, p.step, k, res, want)
				}
			}
		}
	}

	for step := 0; step < steps; step++ {
		switch r := rng.IntN(100); {
		case r < 30: // Execute
			op := randOp()
			res, err := s.Execute(op)
			if err != nil {
				t.Fatal(err)
			}
			if want := apply(model, op); !bytes.Equal(res, want) {
				t.Fatalf("step %d: Execute reply %x, model %x", step, res, want)
			}
		case r < 55: // ExecuteDelta; its delta must carry the model's change
			op := randOp()
			res, delta, err := s.ExecuteDelta(op)
			if err != nil {
				t.Fatal(err)
			}
			replayed := maps.Clone(model)
			if want := apply(model, op); !bytes.Equal(res, want) {
				t.Fatalf("step %d: ExecuteDelta reply %x, model %x", step, res, want)
			}
			dec := wire.NewDecoder(delta)
			refDecode(dec, dec.SliceLen(), replayed, true)
			if err := dec.Done(); err != nil {
				t.Fatalf("step %d: delta does not decode: %v", step, err)
			}
			if !bytes.Equal(refSnapshot(replayed), refSnapshot(model)) {
				t.Fatalf("step %d: delta %x does not carry op %x's change", step, delta, op)
			}
		case r < 65: // ApplyDelta of a few changes, sometimes truncated
			enc := wire.NewEncoder(nil)
			n := 1 + rng.IntN(4)
			enc.Uvarint(uint64(n))
			next := maps.Clone(model)
			for i := 0; i < n; i++ {
				k := key()
				if rng.IntN(3) == 0 {
					enc.Bool(false)
					enc.String(k)
					delete(next, k)
				} else {
					v := value()
					enc.Bool(true)
					enc.String(k)
					enc.Bytes8(v)
					next[k] = v
				}
			}
			delta := enc.Bytes()
			if rng.IntN(4) == 0 {
				if err := s.ApplyDelta(delta[:rng.IntN(len(delta))]); err == nil {
					t.Fatalf("step %d: truncated delta accepted", step)
				}
				break // state must be untouched: check() compares with model
			}
			if err := s.ApplyDelta(delta); err != nil {
				t.Fatal(err)
			}
			model = next
		case r < 75: // a transaction, committed or aborted
			w, err := s.Begin(uint64(step))
			if err != nil {
				t.Fatal(err)
			}
			overlay := maps.Clone(model)
			for i := 0; i < 1+rng.IntN(4); i++ {
				op := randOp()
				res, err := w.Execute(op)
				if err != nil {
					t.Fatal(err)
				}
				if want := apply(overlay, op); !bytes.Equal(res, want) {
					t.Fatalf("step %d: txn reply %x, model %x", step, res, want)
				}
			}
			if _, ok := s.ReadView(); ok {
				t.Fatalf("step %d: pinned a view under transaction locks", step)
			}
			if rng.IntN(3) == 0 {
				w.Abort()
			} else {
				if err := w.Commit(); err != nil {
					t.Fatal(err)
				}
				model = overlay
			}
		case r < 78: // Restore from another state
			next := kvModel{}
			for i := 0; i < rng.IntN(300); i++ {
				next[key()] = value()
			}
			if err := s.Restore(refSnapshot(next)); err != nil {
				t.Fatal(err)
			}
			model = next
		default: // pin a view
			view, ok := s.ReadView()
			if !ok {
				t.Fatalf("step %d: quiescent store refused a pin", step)
			}
			views = append(views, pinnedView{view: view, state: maps.Clone(model), step: step})
			if len(views) > 12 {
				views = views[1:]
			}
		}
		check(step)
	}
}

// TestKVPinnedPutAllocs fences the copy-on-write cost of a write right
// after a read view was pinned: it copies one bucket, so it allocates
// the same objects whether the store holds 4,096 keys or 65,536, and
// under 8 KB on the 4,096-key store (a whole-map copy was ~394 KB).
func TestKVPinnedPutAllocs(t *testing.T) {
	measure := func(keys int) (allocs float64, bytesPerPut uint64) {
		s := loadedKV(t, keys)
		op := KVPut(benchKey(7), make([]byte, benchKVValueSize))
		put := func() {
			if _, ok := s.ReadView(); !ok {
				t.Fatal("pin refused")
			}
			if _, _, err := s.ExecuteDelta(op); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(100, put)
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			put()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := measure(4096)
	bigAllocs, bigBytes := measure(65536)
	t.Logf("pinned put: 4,096 keys %.0f allocs %d B; 65,536 keys %.0f allocs %d B",
		smallAllocs, smallBytes, bigAllocs, bigBytes)
	if smallAllocs != bigAllocs {
		t.Errorf("allocs per pinned put grow with the store: %.0f at 4,096 keys, %.0f at 65,536", smallAllocs, bigAllocs)
	}
	if smallBytes >= 8<<10 {
		t.Errorf("pinned put on 4,096 keys allocates %d B, budget 8 KB", smallBytes)
	}
}

// TestKVViewCachedPerGeneration: pinning twice with no write between
// returns the same view; a write starts a new generation.
func TestKVViewCachedPerGeneration(t *testing.T) {
	s := NewKV()
	mustExec(t, s, KVPut("k", []byte("v")))
	v1, _ := s.ReadView()
	v2, _ := s.ReadView()
	if v1 != v2 {
		t.Fatal("a second pin of the same generation built a new view")
	}
	mustExec(t, s, KVAdd("n", 1))
	if v3, _ := s.ReadView(); v3 == v1 {
		t.Fatal("a write did not end the pinned generation")
	}
}
