package core

import (
	"testing"
	"time"

	"gridrep/internal/netem"
	"gridrep/internal/wire"
)

// wanPipeline boots a WAN cluster whose leader runs one request per
// wave and returns it with its leader. The WAN quorum round trip is long
// enough that concurrent writers queue behind the wave in flight.
func wanPipeline(t *testing.T, seed int64) (*sim, wire.NodeID) {
	p := netem.WAN(0)
	s := newSim(t, simConfig{seed: seed, profile: &p, opts: Options{HeartbeatInterval: 5 * time.Millisecond, NoBatch: true}})
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

// TestPipelineDepthOneStaysSerial checks the one-wave rule (DESIGN.md
// §10): under concurrent writers the leader never has more than one wave
// in flight, reproducing the paper's serial protocol exactly; every ack
// is right — the counter is exact — and every wave has committed once
// the writers are done.
func TestPipelineDepthOneStaysSerial(t *testing.T) {
	s, lead := wanPipeline(t, 41)
	s.increments(4, 4)
	st := &s.nodes[lead].r.stats
	if n := st.maxWavesInFlight.Load(); n != 1 {
		t.Fatalf("waves in flight max = %d; the serial protocol runs exactly 1", n)
	}
	if n := st.wavesInFlight.Load(); n != 0 {
		t.Fatalf("waves in flight = %d after quiescence", n)
	}
	if started, committed := st.wavesStarted.Load(), st.wavesCommitted.Load(); started != committed {
		t.Fatalf("waves started %d != committed %d after quiescence", started, committed)
	}
}

// TestLeaderSwitchMidPipelineRollsBack forces a §3.6 leader switch the
// moment the leader has a wave in flight and more writes queued behind
// it. The demoted leader must re-derive its service past the speculative
// execution, and no acked write may be lost or duplicated across the
// switch: clients retry unacked requests at the new leader and the reply
// cache deduplicates.
func TestLeaderSwitchMidPipelineRollsBack(t *testing.T) {
	s, lead := wanPipeline(t, 42)
	old := s.nodes[lead].r
	switched := false
	s.watch = func() {
		if !switched && old.wave != nil && len(old.queue) > 0 {
			switched = true
			s.suspect(lead)
		}
	}
	s.increments(4, 8)
	if !switched {
		t.Fatal("no write ever queued behind the wave in flight")
	}
	if n := old.stats.specRollbacks.Load(); n != 1 {
		t.Fatalf("spec rollbacks = %d after one demotion mid-wave, want 1 (waves rolled back: %d)",
			n, old.stats.wavesRolledBack.Load())
	}
}

// TestConfigChangeWaitsForWaveInFlight proposes a membership change
// while closed-loop writers keep the leader's wave in flight. The change
// is accepted at once but launches, as its own wave, only when that wave
// commits: it takes the instance right after the wave's top, the leader
// never has two waves in flight, and no acked write is lost or
// duplicated across the quorum switch.
func TestConfigChangeWaitsForWaveInFlight(t *testing.T) {
	s, lead := wanPipeline(t, 43)
	r := s.nodes[lead].r
	gone := (lead + 1) % 3
	var top uint64 // the top instance of the wave in flight at the proposal
	s.watch = func() {
		if top == 0 && r.wave != nil && r.stats.wavesCommitted.Load() >= 2 {
			top = r.wave.round.Top
			s.control(lead, func(r *Replica) {
				if err := r.proposeConfig(wire.ConfigRemove, gone, ""); err != nil {
					t.Fatalf("propose: %v", err)
				}
				if r.configProp == nil {
					t.Fatal("the membership change launched beside the wave in flight")
				}
			})
		}
	}
	const writers, each = 4, 6
	s.concurrently(writers, func(int) []wire.Request {
		reqs := make([]wire.Request, each)
		for i := range reqs {
			reqs[i] = kvAdd("ctr")
		}
		return reqs
	}, func(int, int, wire.Reply) {})
	if top == 0 {
		t.Fatal("the writers never kept a wave in flight")
	}
	if r.membersAt != top+1 || r.isVoter(gone) {
		t.Fatalf("the change is in force at instance %d (voters %v), want %d without %d", r.membersAt, r.voters, top+1, gone)
	}
	if n := r.stats.maxWavesInFlight.Load(); n != 1 {
		t.Fatalf("waves in flight max = %d, want 1", n)
	}
	if got := s.newClient().counter("ctr"); got != writers*each {
		t.Fatalf("ctr = %d, want %d (lost or duplicated acked writes)", got, writers*each)
	}
}
