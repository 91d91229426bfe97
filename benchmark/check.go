package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
)

// opKind is what one recorded operation did.
type opKind uint8

const (
	kvPut opKind = iota
	kvGet
	kvAdd
	schedSubmit
	schedDispatch
	schedComplete
	schedStatus
	schedTxn // submit + dispatch + complete in one T-Paxos transaction
)

// opClass groups kinds into the latency classes the metrics report.
type opClass uint8

const (
	classRead opClass = iota
	classWrite
	classTxn
)

func (k opKind) class() opClass {
	switch k {
	case kvGet, schedStatus:
		return classRead
	case schedTxn:
		return classTxn
	default:
		return classWrite
	}
}

// opRecord is one client-observed operation: when it was due (open loop;
// equal to Start in a closed loop), issued and completed, whether it
// failed, and what it wrote or saw. Times are nanoseconds since the run
// epoch. A failed write is in doubt: it may or may not have applied.
type opRecord struct {
	Client          int
	Kind            opKind
	Failed          bool
	Due, Start, End int64

	// Key-value operations. Val is the version written (put), the version
	// observed (get, 0 = the preloaded value) or the counter value
	// returned (add, and get on a counter). Bad describes a reply that
	// was not a value this benchmark ever wrote.
	Key int
	Val int64
	Bad string

	// Scheduler operations. Job is the id submitted, dispatched ("" when
	// the queue was empty) or completed; Jobs is a status listing, each
	// "id state". Sub holds a transaction's operations in order.
	Job  string
	Jobs []string
	Sub  []opRecord

	// SeqLo..SeqHi are the client sequence numbers the operation used;
	// the traced run matches network spans to operations by them.
	SeqLo, SeqHi uint64
}

func (r *opRecord) latencyMS() float64 { return float64(r.End-r.Due) / 1e6 }

// violations collects correctness failures, keeping the first few
// verbatim and counting the rest.
type violations struct {
	msgs  []string
	total int
}

func (v *violations) addf(format string, args ...interface{}) {
	v.total++
	if len(v.msgs) < 10 {
		v.msgs = append(v.msgs, fmt.Sprintf(format, args...))
	}
}

func (v *violations) ok() bool { return v.total == 0 }

func (v *violations) String() string {
	if v.total == 0 {
		return "no violations"
	}
	s := strings.Join(v.msgs, "\n  ")
	if v.total > len(v.msgs) {
		s += fmt.Sprintf("\n  ... and %d more", v.total-len(v.msgs))
	}
	return fmt.Sprintf("%d violations:\n  %s", v.total, s)
}

// checkRegisters verifies single-writer registers whose one writer issues
// versions 1, 2, 3, ... in order (version 0 is the preloaded value), read
// by any client. Such a register only moves forward, so: an operation
// that starts after another completed never sees an older version; a get
// never returns a version whose put had not been issued when the get
// ended; and the final state holds at least the last acknowledged version
// (no acknowledged write lost) and at most the last issued one. A failed
// put is in doubt and may or may not have applied.
func checkRegisters(ops []opRecord, final map[int]int64, v *violations) {
	byKey := map[int][]*opRecord{}
	for i := range ops {
		op := &ops[i]
		if op.Kind == kvPut || op.Kind == kvGet {
			byKey[op.Key] = append(byKey[op.Key], op)
		}
	}
	for key, list := range byKey {
		sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
		var puts, done []*opRecord // puts in issue order; successful ops
		var acked int64
		for _, op := range list {
			switch {
			case op.Kind == kvPut:
				if n := len(puts); n > 0 && (op.Client != puts[0].Client || op.Val <= puts[n-1].Val || op.Start < puts[n-1].End) {
					v.addf("key %d: puts must come from one client, one at a time, with rising versions (client %d version %d after client %d version %d)",
						key, op.Client, op.Val, puts[n-1].Client, puts[n-1].Val)
				}
				puts = append(puts, op)
				if !op.Failed {
					acked = op.Val
					done = append(done, op)
				}
			case op.Failed:
				// A failed get says nothing.
			case op.Bad != "":
				v.addf("key %d: get returned garbage: %s", key, op.Bad)
			default:
				done = append(done, op)
			}
		}
		byEnd := append([]*opRecord(nil), done...)
		sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].End < byEnd[j].End })
		floor, next, issued := int64(0), 0, 0 // newest version completed, and puts issued, before the current op
		for _, op := range done {             // in Start order
			for next < len(byEnd) && byEnd[next].End < op.Start {
				if byEnd[next].Val > floor {
					floor = byEnd[next].Val
				}
				next++
			}
			if op.Kind != kvGet {
				continue
			}
			for issued < len(puts) && puts[issued].Start < op.End {
				issued++
			}
			newest := int64(0)
			if issued > 0 {
				newest = puts[issued-1].Val
			}
			if op.Val < floor {
				v.addf("key %d: get by client %d saw version %d after version %d was acknowledged or observed (stale read)", key, op.Client, op.Val, floor)
			}
			if op.Val > newest {
				v.addf("key %d: get by client %d saw version %d, but only %d had been issued", key, op.Client, op.Val, newest)
			}
		}
		last := int64(0)
		if n := len(puts); n > 0 {
			last = puts[n-1].Val
		}
		fin, ok := final[key]
		switch {
		case !ok:
			v.addf("key %d missing from the final state", key)
		case fin < acked:
			v.addf("key %d: final version %d, last acknowledged %d (acknowledged write lost)", key, fin, acked)
		case fin > last:
			v.addf("key %d: final version %d, last issued %d (phantom write)", key, fin, last)
		}
	}
}

// checkCounters verifies shared counters incremented by one with kvAdd
// and read with kvGet, under concurrent clients and leader crashes:
// acknowledged increments return distinct values; an operation that
// starts after another completed never sees a smaller value (monotone
// reads, increments strictly larger); and each counter ends in
// [acknowledged, acknowledged + in doubt].
func checkCounters(ops []opRecord, final map[int]int64, v *violations) {
	byKey := map[int][]*opRecord{}
	for i := range ops {
		op := &ops[i]
		if op.Kind == kvAdd || op.Kind == kvGet {
			byKey[op.Key] = append(byKey[op.Key], op)
		}
	}
	for key, list := range byKey {
		var acked, inDoubt int64
		seen := map[int64]bool{}
		var done []*opRecord // successful ops, to be ordered by End
		for _, op := range list {
			switch {
			case op.Kind == kvAdd && op.Failed:
				inDoubt++
			case op.Failed:
			case op.Bad != "":
				v.addf("counter %d: reply was not an integer: %s", key, op.Bad)
			default:
				if op.Kind == kvAdd {
					acked++
					if seen[op.Val] {
						v.addf("counter %d: two acknowledged increments returned %d", key, op.Val)
					}
					seen[op.Val] = true
				}
				done = append(done, op)
			}
		}
		byStart := append([]*opRecord(nil), done...)
		sort.Slice(byStart, func(i, j int) bool { return byStart[i].Start < byStart[j].Start })
		sort.Slice(done, func(i, j int) bool { return done[i].End < done[j].End })
		floor, next := int64(0), 0 // highest value completed before the current op began
		for _, op := range byStart {
			for next < len(done) && done[next].End < op.Start {
				if done[next].Val > floor {
					floor = done[next].Val
				}
				next++
			}
			if op.Kind == kvAdd && op.Val <= floor {
				v.addf("counter %d: increment returned %d after %d was already observed", key, op.Val, floor)
			}
			if op.Kind == kvGet && op.Val < floor {
				v.addf("counter %d: read returned %d after %d was already observed (not monotone)", key, op.Val, floor)
			}
		}
		fin := final[key]
		if fin < acked || fin > acked+inDoubt {
			v.addf("counter %d: final value %d outside [%d acknowledged, +%d in doubt]", key, fin, acked, inDoubt)
		}
		for _, op := range done {
			if op.Val > fin {
				v.addf("counter %d: value %d was observed but the final value is %d", key, op.Val, fin)
				break
			}
		}
	}
}

// checkSched verifies the scheduler history: a job id is dispatched at
// most once; a status listing never shows an id twice, never shows an id
// nobody submitted, and always shows every job whose submit was
// acknowledged before the read began and whose complete had not been
// issued when it ended; and after quiesce every submitted job that was
// not completed is listed exactly once (in-doubt submits and completes
// may go either way), running if and only if it was dispatched.
func checkSched(ops []opRecord, final []string, v *violations) {
	type life struct {
		submitStart, submitEnd int64 // submitEnd 0: in doubt
		completeStart          int64 // 0: never issued
		completeAcked          bool
		dispatched             int
	}
	jobs := map[string]*life{}
	lostDispatch := false // a failed dispatch may have started a job we cannot name
	var flat []*opRecord  // single ops and transaction members, each with its own times
	for i := range ops {
		op := &ops[i]
		if op.Kind != schedTxn {
			flat = append(flat, op)
			continue
		}
		for j := range op.Sub {
			sub := &op.Sub[j]
			// A transaction's effects appear at commit: its members take
			// the transaction's span and outcome.
			sub.Start, sub.End, sub.Failed = op.Start, op.End, op.Failed
			flat = append(flat, sub)
		}
	}
	for _, op := range flat {
		switch op.Kind {
		case schedSubmit:
			if jobs[op.Job] != nil {
				v.addf("job %q submitted twice by the generator", op.Job)
				continue
			}
			l := &life{submitStart: op.Start}
			if !op.Failed {
				l.submitEnd = op.End
			}
			jobs[op.Job] = l
		}
	}
	for _, op := range flat {
		switch op.Kind {
		case schedDispatch:
			if op.Failed {
				lostDispatch = true
			}
			if op.Failed || op.Job == "" {
				continue
			}
			l := jobs[op.Job]
			if l == nil {
				v.addf("dispatch returned job %q that nobody submitted", op.Job)
				continue
			}
			l.dispatched++
			if l.dispatched > 1 {
				v.addf("job %q dispatched %d times", op.Job, l.dispatched)
			}
		case schedComplete:
			if l := jobs[op.Job]; l != nil {
				l.completeStart = op.Start
				l.completeAcked = !op.Failed
			}
		}
	}
	listing := func(rows []string, what string) map[string]string {
		out := map[string]string{}
		for _, row := range rows {
			id, state, _ := strings.Cut(row, " ")
			if _, dup := out[id]; dup {
				v.addf("%s lists job %q twice", what, id)
			}
			if jobs[id] == nil {
				v.addf("%s lists job %q that nobody submitted", what, id)
			}
			out[id] = state
		}
		return out
	}
	for _, op := range flat {
		if op.Kind != schedStatus || op.Failed {
			continue
		}
		got := listing(op.Jobs, "status read")
		for id, l := range jobs {
			live := l.submitEnd != 0 && l.submitEnd < op.Start &&
				(l.completeStart == 0 || l.completeStart > op.End)
			if _, ok := got[id]; live && !ok {
				v.addf("status read by client %d misses live job %q", op.Client, id)
			}
		}
	}
	fin := listing(final, "final state")
	for id, l := range jobs {
		state, present := fin[id]
		switch {
		case l.submitEnd != 0 && l.completeStart == 0 && !present:
			v.addf("job %q acknowledged but absent from the final state", id)
		case l.completeAcked && present:
			v.addf("job %q completed but still in the final state", id)
		}
		if present && !lostDispatch && (state == "running") != (l.dispatched > 0) {
			v.addf("job %q is %s in the final state after %d dispatches", id, state, l.dispatched)
		}
	}
}

// checkSnapshots verifies that after quiesce every replica holds the
// same service state, byte for byte.
func checkSnapshots(snaps [][]byte, v *violations) {
	for i := 1; i < len(snaps); i++ {
		if !bytes.Equal(snaps[0], snaps[i]) {
			v.addf("replica %d's snapshot (%d bytes) differs from replica 0's (%d bytes)", i, len(snaps[i]), len(snaps[0]))
		}
	}
}
