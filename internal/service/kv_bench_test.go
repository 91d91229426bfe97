package service

import (
	"fmt"
	"testing"
)

// The KV microbenchmarks run on the state the canonical TCP workloads
// keep: 4,096 keys × 256 B values, about 1 MB.
const (
	benchKVKeys      = 4096
	benchKVValueSize = 256
)

func benchKey(k int) string { return fmt.Sprintf("key-%06d", k) }

// loadedKV returns a store holding keys benchKey(0..keys-1), each with a
// benchKVValueSize-byte value.
func loadedKV(tb testing.TB, keys int) *KV {
	tb.Helper()
	s := NewKV()
	val := make([]byte, benchKVValueSize)
	for k := 0; k < keys; k++ {
		val[0], val[1] = byte(k), byte(k>>8)
		if _, err := s.Execute(KVPut(benchKey(k), val)); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// benchPuts returns n puts walking the loaded keys.
func benchPuts(n int) [][]byte {
	val := make([]byte, benchKVValueSize)
	ops := make([][]byte, n)
	for i := range ops {
		ops[i] = KVPut(benchKey(i*61%benchKVKeys), val)
	}
	return ops
}

// BenchmarkKVPut: a put on the leader's path (ExecuteDelta), no view
// pinned.
func BenchmarkKVPut(b *testing.B) {
	s := loadedKV(b, benchKVKeys)
	ops := benchPuts(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.ExecuteDelta(ops[i%len(ops)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVPutPinned: a put right after a read view was pinned, the
// read pool's steady state under mixed load (DESIGN.md §14).
func BenchmarkKVPutPinned(b *testing.B) {
	s := loadedKV(b, benchKVKeys)
	ops := benchPuts(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.ReadView(); !ok {
			b.Fatal("pin refused")
		}
		if _, _, err := s.ExecuteDelta(ops[i%len(ops)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVGet: a read through a pinned view, as a read-pool worker
// runs it.
func BenchmarkKVGet(b *testing.B) {
	s := loadedKV(b, benchKVKeys)
	view, ok := s.ReadView()
	if !ok {
		b.Fatal("pin refused")
	}
	ops := make([][]byte, 256)
	for i := range ops {
		ops[i] = KVGet(benchKey(i * 61 % benchKVKeys))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := view.ReadExecute(ops[i%len(ops)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVSnapshot: the full-state encoding every replica takes for
// its durable snapshot.
func BenchmarkKVSnapshot(b *testing.B) {
	s := loadedKV(b, benchKVKeys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Snapshot()
	}
}
