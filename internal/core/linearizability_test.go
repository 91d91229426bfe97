package core

import (
	"fmt"
	"testing"
	"time"

	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// TestReadLinearizability brackets every X-Paxos read of a counter one
// writer increments between two bounds from the writer's history:
//
//	completed-before-read-start <= read value <= started-before-read-end
//
// which is linearizability for a register that only increments. Below
// the lower bound is a stale read (§3.4: "the value ... must reflect the
// latest update"); above the upper one, an increment never issued. Each
// reader's view must also never go backwards.
//
// It runs over PipelineDepth {1,4} × NoBatch {false,true}: the
// speculative pipeline must not weaken the read contract — a reply may
// expose only state whose every instance is committed.
func TestReadLinearizability(t *testing.T) {
	for _, depth := range []int{1, 4} {
		for _, noBatch := range []bool{false, true} {
			t.Run(fmt.Sprintf("depth=%d,nobatch=%v", depth, noBatch), func(t *testing.T) {
				s := newSim(t, simConfig{seed: int64(100 + depth), opts: Options{PipelineDepth: depth, NoBatch: noBatch}})
				s.awaitLeader(time.Second)
				readLinearizability(t, s)
			})
		}
	}
}

func readLinearizability(t *testing.T, s *sim) {
	w := s.newClient()
	started, completed := int64(0), int64(0)
	var write func()
	write = func() {
		if started == 80 {
			return
		}
		started++
		w.do(kvAdd("ctr"), func(wire.Reply) { completed++; write() })
	}
	write()
	reads := 0
	for i := 0; i < 3; i++ {
		r, prev := s.newClient(), int64(-1)
		var read func()
		read = func() {
			if completed == 80 {
				return
			}
			lower := completed
			r.do(wire.Request{Kind: wire.KindRead, Op: service.KVGet("ctr")}, func(rep wire.Reply) {
				got, _ := service.KVInt(rep.Result)
				if rep.Status != wire.StatusOK || got < lower || got > started || got < prev {
					t.Errorf("read %v %d outside [%d, %d] or below this reader's previous %d", rep.Status, got, lower, started, prev)
				}
				prev = got
				reads++
				read()
			})
		}
		read()
	}
	if !s.runUntil(opLimit, func() bool { return completed == 80 }) {
		t.Fatalf("%d of 80 writes completed", completed)
	}
	if reads < 80 {
		t.Fatalf("only %d reads overlapped 80 writes", reads)
	}
}
