package core

import (
	"testing"
	"time"

	"gridrep/internal/netem"
	"gridrep/internal/wire"
)

// wanPipeline boots a WAN cluster whose leader runs up to depth waves,
// one request per wave, and returns it with its leader. The WAN quorum
// round trip is long enough that concurrent writers overlap waves.
func wanPipeline(t *testing.T, seed int64, depth int) (*sim, wire.NodeID) {
	p := netem.WAN(0)
	s := newSim(t, simConfig{seed: seed, profile: &p, opts: Options{HeartbeatInterval: 5 * time.Millisecond, PipelineDepth: depth, NoBatch: true}})
	return s, s.awaitLeader(10 * time.Second)
}

// increments runs writers closed-loop clients of each counter increments,
// lets the cluster converge, and requires the counter exact: no acked
// write lost or duplicated.
func (s *sim) increments(writers, each int) {
	s.t.Helper()
	s.concurrently(writers, func(int) []wire.Request {
		reqs := make([]wire.Request, each)
		for i := range reqs {
			reqs[i] = kvAdd("ctr")
		}
		return reqs
	}, func(int, int, wire.Reply) {})
	s.mustConverge()
	if got := s.newClient().counter("ctr"); got != int64(writers*each) {
		s.t.Fatalf("ctr = %d, want %d (lost or duplicated acked writes)", got, writers*each)
	}
}

// TestPipelinedWritesOverlapAndCommitInOrder runs concurrent writers
// against a depth-4 leader. The pipeline, not batching, absorbs the
// concurrency. Every ack must be right — the counter is exact — and the
// waves must really have overlapped, and all have committed once the
// writers are done.
func TestPipelinedWritesOverlapAndCommitInOrder(t *testing.T) {
	s, lead := wanPipeline(t, 41, 4)
	s.increments(4, 6)
	st := &s.nodes[lead].r.stats
	if n := st.maxWavesInFlight.Load(); n < 2 {
		t.Fatalf("waves in flight max = %d; waves never overlapped", n)
	}
	if n := st.wavesInFlight.Load(); n != 0 {
		t.Fatalf("waves in flight = %d after quiescence", n)
	}
	if started, committed := st.wavesStarted.Load(), st.wavesCommitted.Load(); started != committed {
		t.Fatalf("waves started %d != committed %d after quiescence", started, committed)
	}
}

// TestPipelineDepthOneStaysSerial checks the compatibility contract:
// under the same concurrent writers, a depth-1 leader never has more than
// one wave in flight, reproducing the paper's serial protocol exactly.
func TestPipelineDepthOneStaysSerial(t *testing.T) {
	s, lead := wanPipeline(t, 41, 1)
	s.increments(4, 4)
	if n := s.nodes[lead].r.stats.maxWavesInFlight.Load(); n != 1 {
		t.Fatalf("waves in flight max = %d at depth 1; the serial protocol runs exactly 1", n)
	}
}

// TestLeaderSwitchMidPipelineRollsBack forces a §3.6 leader switch the
// moment a depth-4 leader has two waves in flight. The demoted leader
// must re-derive its service past the speculative executions, and no
// acked write may be lost or duplicated across the switch: clients retry
// unacked requests at the new leader and the reply cache deduplicates.
func TestLeaderSwitchMidPipelineRollsBack(t *testing.T) {
	s, lead := wanPipeline(t, 42, 4)
	old := s.nodes[lead].r
	switched := false
	s.watch = func() {
		if !switched && old.stats.wavesInFlight.Load() >= 2 {
			switched = true
			s.suspect(lead)
		}
	}
	s.increments(4, 8)
	if !switched {
		t.Fatal("the pipeline never filled with 2+ waves")
	}
	if n := old.stats.specRollbacks.Load(); n != 1 {
		t.Fatalf("spec rollbacks = %d after one demotion mid-pipeline, want 1 (waves rolled back: %d)",
			n, old.stats.wavesRolledBack.Load())
	}
}
