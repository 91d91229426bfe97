package service

import (
	"bytes"
	"testing"

	"gridrep/internal/wire"
)

// fuzzBase is the store both fuzz targets start from, and its model:
// four keys, one of them the "a" the seed deltas overwrite.
func fuzzBase(t testing.TB) (*KV, kvModel) {
	s, model := NewKV(), kvModel{}
	for _, kv := range [][2]string{{"a", "\x01\x00\x00\x00\x00\x00\x00\x00"}, {"b", "bee"}, {"c", ""}, {"key-17", "v"}} {
		mustExec(t, s, KVPut(kv[0], []byte(kv[1])))
		var v []byte
		if kv[1] != "" {
			v = []byte(kv[1])
		}
		model[kv[0]] = v
	}
	return s, model
}

// refDecode reads n (key, value-or-delete) changes the way the
// whole-map store did, for the fuzz targets' expected state.
func refDecode(dec *wire.Decoder, n int, into kvModel, withTag bool) {
	for i := 0; i < n && dec.Err() == nil; i++ {
		put := true
		if withTag {
			put = dec.Bool()
		}
		k := dec.String()
		if put {
			into[k] = dec.Bytes8()
		} else {
			delete(into, k)
		}
	}
}

// FuzzKVApplyDelta: ApplyDelta either applies the whole delta — the
// state then equals the reference decoding applied to a plain map — or
// returns an error and leaves the state byte-equal. It never panics.
func FuzzKVApplyDelta(f *testing.F) {
	s, _ := fuzzBase(f)
	_, delta, _ := s.ExecuteDelta(KVAdd("a", 1))
	f.Add(delta)
	f.Fuzz(func(t *testing.T, delta []byte) {
		s, model := fuzzBase(t)
		before := s.Snapshot()
		dec := wire.NewDecoder(delta)
		refDecode(dec, dec.SliceLen(), model, true)
		want := dec.Done()
		err := s.ApplyDelta(delta)
		if (err == nil) != (want == nil) {
			t.Fatalf("ApplyDelta err = %v, reference decoder err = %v", err, want)
		}
		if err != nil {
			if !bytes.Equal(s.Snapshot(), before) {
				t.Fatalf("refused delta (%v) changed the state", err)
			}
			return
		}
		if !bytes.Equal(s.Snapshot(), refSnapshot(model)) {
			t.Fatal("applied delta differs from the reference")
		}
	})
}

// FuzzKVRestore: Restore either installs exactly the encoded pairs
// (later duplicates win, as in the whole-map store) or returns an error
// and leaves the state byte-equal. It never panics.
func FuzzKVRestore(f *testing.F) {
	s, _ := fuzzBase(f)
	f.Add(s.Snapshot())
	f.Fuzz(func(t *testing.T, snap []byte) {
		s, _ := fuzzBase(t)
		before := s.Snapshot()
		dec := wire.NewDecoder(snap)
		model := kvModel{}
		refDecode(dec, dec.SliceLen(), model, false)
		want := dec.Done()
		err := s.Restore(snap)
		if (err == nil) != (want == nil) {
			t.Fatalf("Restore err = %v, reference decoder err = %v", err, want)
		}
		if err != nil {
			if !bytes.Equal(s.Snapshot(), before) {
				t.Fatalf("refused snapshot (%v) changed the state", err)
			}
			return
		}
		if !bytes.Equal(s.Snapshot(), refSnapshot(model)) {
			t.Fatal("restored state differs from the reference")
		}
	})
}
