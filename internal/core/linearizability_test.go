package core

import (
	"fmt"
	"maps"
	"strings"
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

// TestReadLinearizabilitySchedTxn is the bracket for a serialized
// service, whose exclusive transactions run on the live state: one
// writer submits jobs w1..w40 in order, and a transaction client submits
// job tK inside transaction K, committing the even ones and aborting the
// odd ones. Every status read must show the writer's jobs w1..wk with
// completed-before-read-start <= k <= started-before-read-end, every tK
// whose commit was acknowledged before it started, no tK whose commit
// had not been sent when it was answered — so no aborted one and no
// open one — and, per reader, never fewer jobs than before. It runs at
// PipelineDepth {1,4}.
func TestReadLinearizabilitySchedTxn(t *testing.T) {
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			s := newSim(t, simConfig{seed: int64(110 + depth), opts: Options{PipelineDepth: depth},
				service: func(wire.NodeID, int) service.Service { return service.NewSched() }})
			s.awaitLeader(time.Second)
			const writes = 40
			w := s.newClient()
			started, completed := 0, 0
			var write func()
			write = func() {
				if started == writes {
					return
				}
				started++
				w.do(wire.Request{Kind: wire.KindWrite, Op: service.SchedSubmit(fmt.Sprint("w", started), 1)}, func(rep wire.Reply) {
					if rep.Status != wire.StatusOK {
						t.Errorf("submit: %v %s", rep.Status, rep.Err)
					}
					completed++
					write()
				})
			}
			write()

			tc := s.newClient()
			commitSent, committed := map[string]bool{}, map[string]bool{}
			txns, aborts := 0, 0
			var txn func()
			txn = func() {
				if completed == writes {
					return
				}
				txns++
				id, job := uint64(txns), fmt.Sprint("t", txns)
				end := wire.Request{Kind: wire.KindTxnAbort, Txn: id, TxnSeq: 1}
				if txns%2 == 0 {
					end.Kind = wire.KindTxnCommit
				}
				tc.do(wire.Request{Kind: wire.KindTxnOp, Txn: id, Op: service.SchedSubmit(job, 9)}, func(rep wire.Reply) {
					if rep.Status != wire.StatusOK {
						t.Errorf("txn %d op: %v %s", id, rep.Status, rep.Err)
						return
					}
					commitSent[job] = end.Kind == wire.KindTxnCommit
					tc.do(end, func(rep wire.Reply) {
						if rep.Status != wire.StatusOK {
							t.Errorf("txn %d end: %v %s", id, rep.Status, rep.Err)
							return
						}
						if end.Kind == wire.KindTxnCommit {
							committed[job] = true
						} else {
							aborts++
						}
						txn()
					})
				})
			}
			txn()

			reads := 0
			for i := 0; i < 3; i++ {
				r, prev := s.newClient(), 0
				var read func()
				read = func() {
					if completed == writes {
						return
					}
					lower, mustHave := completed, maps.Clone(committed)
					r.do(wire.Request{Kind: wire.KindRead, Op: service.SchedStatus()}, func(rep wire.Reply) {
						reads++
						jobs := map[string]bool{}
						for _, line := range strings.Split(strings.TrimSpace(string(rep.Result)), "\n") {
							if id, _, ok := strings.Cut(line, " "); ok {
								jobs[id] = true
							}
						}
						k, ws := 0, 0
						for jobs[fmt.Sprint("w", k+1)] {
							k++
						}
						bad := rep.Status != wire.StatusOK || k < lower || k > started || len(jobs) < prev
						for id := range jobs {
							if id[0] == 'w' {
								ws++
							}
							bad = bad || id[0] == 't' && !commitSent[id]
						}
						bad = bad || ws != k
						for id := range mustHave {
							bad = bad || !jobs[id]
						}
						if bad {
							t.Errorf("read %v %q: want w1..wk with %d <= k <= %d (k = %d), the committed %v, only jobs whose commit was sent, and at least this reader's previous %d jobs",
								rep.Status, rep.Result, lower, started, k, mustHave, prev)
						}
						prev = len(jobs)
						read()
					})
				}
				read()
			}
			if !s.runUntil(opLimit, func() bool { return completed == writes }) {
				t.Fatalf("%d of %d submits completed", completed, writes)
			}
			if reads < writes || len(committed) == 0 || aborts == 0 {
				t.Fatalf("%d reads beside %d submits, %d commits and %d aborts: the run tests too little", reads, writes, len(committed), aborts)
			}
			s.mustConverge()
		})
	}
}
