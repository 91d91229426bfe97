package storage

import (
	"fmt"
	"path/filepath"
	"testing"

	"gridrep/internal/wire"
)

// benchEntry builds a one-request entry with a payload in the size range
// the paper's write workload produces.
func benchEntry(inst uint64, bal wire.Ballot) wire.Entry {
	op := make([]byte, 100)
	for i := range op {
		op[i] = byte(inst + uint64(i))
	}
	return wire.Entry{
		Instance: inst,
		Bal:      bal,
		Prop: wire.Proposal{
			Reqs: []wire.Request{{Client: 1, Seq: inst, Op: op}},
		},
	}
}

func benchFile(b *testing.B, sync bool) *File {
	b.Helper()
	s, err := OpenFile(filepath.Join(b.TempDir(), "bench.wal"))
	if err != nil {
		b.Fatal(err)
	}
	s.Sync = sync
	s.rewriteAt = 1 << 40 // keep background rewrites out of the measurement
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkFileAppendPerRecord is the inline write path: every record is
// its own flush (and, in the sync variant, its own fdatasync).
func BenchmarkFileAppendPerRecord(b *testing.B) {
	for _, sync := range []bool{true, false} {
		name := "nosync"
		if sync {
			name = "sync"
		}
		b.Run(name, func(b *testing.B) {
			s := benchFile(b, sync)
			bal := wire.Ballot{Round: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.PutAccepted([]wire.Entry{benchEntry(uint64(i+1), bal)}, bal); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFileAppendGroupCommit runs the File in staged mode and makes
// a whole burst durable with one Flush — one write into the preallocated
// extent, one fdatasync — amortizing the per-record sync cost burst-fold.
func BenchmarkFileAppendGroupCommit(b *testing.B) {
	for _, sync := range []bool{true, false} {
		mode := "nosync"
		if sync {
			mode = "sync"
		}
		for _, burst := range []int{8, 64} {
			b.Run(fmt.Sprintf("%s/burst=%d", mode, burst), func(b *testing.B) {
				s := benchFile(b, sync)
				s.SetBuffered(true)
				bal := wire.Ballot{Round: 1}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.PutAccepted([]wire.Entry{benchEntry(uint64(i+1), bal)}, bal); err != nil {
						b.Fatal(err)
					}
					if (i+1)%burst == 0 {
						if err := s.Flush(); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := s.Flush(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkFileWaveAppend measures the leader's actual per-wave record
// shape — one accepted record carrying a whole wave of entries plus the
// piggybacked chosen record — per-record vs group-commit.
func BenchmarkFileWaveAppend(b *testing.B) {
	const waveSize = 32
	bal := wire.Ballot{Round: 1}
	for _, buffered := range []bool{false, true} {
		name := "per-record"
		if buffered {
			name = "group-commit"
		}
		b.Run(name, func(b *testing.B) {
			s := benchFile(b, true)
			s.SetBuffered(buffered)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := uint64(i*waveSize + 1)
				wave := make([]wire.Entry, waveSize)
				for j := range wave {
					wave[j] = benchEntry(base+uint64(j), bal)
				}
				if err := s.PutAccepted(wave, bal); err != nil {
					b.Fatal(err)
				}
				if err := s.SetChosen(base + waveSize - 1); err != nil {
					b.Fatal(err)
				}
				if buffered {
					if err := s.Flush(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAcceptedLogPruneCycle is the in-memory log's steady state on
// a compacting replica: a wave of 64 entries is put, then the log is
// pruned back to its newest 256 instances. One op is one cycle.
func BenchmarkAcceptedLogPruneCycle(b *testing.B) {
	const batch, window = 64, 256
	l := NewAcceptedLog()
	e := benchEntry(1, wire.Ballot{Round: 1})
	next := uint64(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			e.Instance = next
			l.Put(e)
			next++
		}
		if next > window {
			l.PruneTo(next - window)
		}
	}
}
