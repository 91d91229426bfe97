package service

import (
	"fmt"
	"maps"
	"sort"

	"gridrep/internal/wire"
)

// Sched is the paper's second motivating application (§2): a grid
// scheduling service (after the NILE Global Planner) that examines jobs
// in FCFS order, with FCFS overridden by job priorities.
//
// The service is unintentionally nondeterministic: which job a Dispatch
// selects depends on which submissions the scheduler has seen when it
// examines the queue — a function of machine speed and message timing,
// not just of the request set. Under replication, the leader's execution
// order captures that timing; the decided <req, state> tuples make every
// replica agree on the schedule (§2: "we need a protocol that can
// synchronize the replicas of a nondeterministic service").
type Sched struct {
	arrivals uint64
	queued   map[string]*job
	running  map[string]*job
	pinned   bool // a read view holds the maps: the next write copies them
}

// job is never modified once submitted, so a map copy shares them.
type job struct {
	id      string
	prio    int64
	arrival uint64 // FCFS order stamp
}

// NewSched returns an empty scheduler.
func NewSched() *Sched {
	return &Sched{queued: make(map[string]*job), running: make(map[string]*job)}
}

var _ Service = (*Sched)(nil)

// Scheduler opcodes.
const (
	schSubmit uint8 = iota + 1
	schDispatch
	schComplete
	schStatus
)

// SchedSubmit builds an op submitting a job with a priority (higher wins).
func SchedSubmit(id string, prio int64) []byte {
	enc := wire.NewEncoder(nil)
	enc.Uint8(schSubmit)
	enc.String(id)
	enc.Uint64(uint64(prio))
	return enc.Bytes()
}

// SchedDispatch builds an op that examines the queue and starts the best
// job: highest priority, FCFS among equals. The reply is the chosen job
// ID, or empty when the queue is empty.
func SchedDispatch() []byte { return []byte{schDispatch} }

// SchedComplete builds an op marking a running job finished.
func SchedComplete(id string) []byte {
	enc := wire.NewEncoder(nil)
	enc.Uint8(schComplete)
	enc.String(id)
	return enc.Bytes()
}

// SchedStatus builds a read op returning a human-readable queue summary.
func SchedStatus() []byte { return []byte{schStatus} }

// SchedIsWrite reports whether op mutates scheduler state.
func SchedIsWrite(op []byte) bool { return len(op) > 0 && op[0] != schStatus }

// Execute implements Service.
func (s *Sched) Execute(op []byte) ([]byte, error) {
	if len(op) == 0 {
		return nil, ErrBadOp
	}
	dec := wire.NewDecoder(op)
	code := dec.Uint8()
	if code != schStatus {
		s.writable()
	}
	switch code {
	case schSubmit:
		id := dec.String()
		prio := int64(dec.Uint64())
		if err := dec.Done(); err != nil {
			return nil, err
		}
		if _, dup := s.queued[id]; dup {
			return nil, fmt.Errorf("%w: duplicate job %q", ErrBadOp, id)
		}
		if _, dup := s.running[id]; dup {
			return nil, fmt.Errorf("%w: job %q already running", ErrBadOp, id)
		}
		s.arrivals++
		s.queued[id] = &job{id: id, prio: prio, arrival: s.arrivals}
		return nil, nil
	case schDispatch:
		if err := dec.Done(); err != nil {
			return nil, err
		}
		best := s.pick()
		if best == nil {
			return nil, nil
		}
		delete(s.queued, best.id)
		s.running[best.id] = best
		return []byte(best.id), nil
	case schComplete:
		id := dec.String()
		if err := dec.Done(); err != nil {
			return nil, err
		}
		if _, ok := s.running[id]; !ok {
			return nil, fmt.Errorf("%w: job %q not running", ErrBadOp, id)
		}
		delete(s.running, id)
		return nil, nil
	case schStatus:
		if err := dec.Done(); err != nil {
			return nil, err
		}
		return jobStatus(s.queued, s.running), nil
	default:
		return nil, fmt.Errorf("%w: scheduler opcode %d", ErrBadOp, code)
	}
}

// pick returns the job the FCFS-with-priority policy selects from the
// submissions seen so far.
func (s *Sched) pick() *job {
	var best *job
	for _, j := range s.queued {
		if best == nil || j.prio > best.prio || (j.prio == best.prio && j.arrival < best.arrival) {
			best = j
		}
	}
	return best
}

// jobStatus renders the queue summary a status read returns.
func jobStatus(queued, running map[string]*job) []byte {
	type row struct{ id, state string }
	var rows []row
	for id := range queued {
		rows = append(rows, row{id, "queued"})
	}
	for id := range running {
		rows = append(rows, row{id, "running"})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	out := ""
	for _, r := range rows {
		out += fmt.Sprintf("%s %s\n", r.id, r.state)
	}
	return []byte(out)
}

// Snapshot implements Service with a deterministic encoding.
func (s *Sched) Snapshot() []byte {
	enc := wire.NewEncoder(nil)
	enc.Uvarint(s.arrivals)
	writeJobs := func(m map[string]*job) {
		ids := make([]string, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		enc.Uvarint(uint64(len(ids)))
		for _, id := range ids {
			j := m[id]
			enc.String(j.id)
			enc.Uint64(uint64(j.prio))
			enc.Uvarint(j.arrival)
		}
	}
	writeJobs(s.queued)
	writeJobs(s.running)
	return enc.Bytes()
}

// Restore implements Service.
func (s *Sched) Restore(snap []byte) error {
	dec := wire.NewDecoder(snap)
	arrivals := dec.Uvarint()
	readJobs := func() (map[string]*job, error) {
		n := dec.SliceLen()
		if dec.Err() != nil {
			return nil, dec.Err()
		}
		m := make(map[string]*job, n)
		for i := 0; i < n; i++ {
			j := &job{}
			j.id = dec.String()
			j.prio = int64(dec.Uint64())
			j.arrival = dec.Uvarint()
			m[j.id] = j
		}
		return m, nil
	}
	queued, err := readJobs()
	if err != nil {
		return err
	}
	running, err := readJobs()
	if err != nil {
		return err
	}
	if err := dec.Done(); err != nil {
		return err
	}
	s.arrivals, s.queued, s.running, s.pinned = arrivals, queued, running, false
	return nil
}

// Counts returns (queued, running) sizes (for tests).
func (s *Sched) Counts() (int, int) { return len(s.queued), len(s.running) }

// Sched implements Replayer: the timing-dependent choice is which job a
// dispatch selects, reproduced exactly by the chosen job ID (§3.3's
// "request and some additional information", the paper's own example:
// "the primary only need to send the state of its queue when it selects
// a new request").
var _ Replayer = (*Sched)(nil)

// ExecuteCapture implements Replayer; a dispatch's aux is the selected
// job ID (its reply), every other operation is deterministic.
func (s *Sched) ExecuteCapture(op []byte) (reply, aux []byte, err error) {
	reply, err = s.Execute(op)
	if err != nil {
		return nil, nil, err
	}
	if len(op) > 0 && op[0] == schDispatch {
		aux = reply
	}
	return reply, aux, nil
}

// Replay implements Replayer: a dispatch starts exactly the job the
// leader picked rather than re-examining the queue.
func (s *Sched) Replay(op, aux []byte) ([]byte, error) {
	if len(op) == 0 {
		return nil, ErrBadOp
	}
	if op[0] != schDispatch {
		return s.Execute(op)
	}
	if len(aux) == 0 {
		return nil, nil // the leader dispatched from an empty queue
	}
	id := string(aux)
	j, ok := s.queued[id]
	if !ok {
		return nil, fmt.Errorf("%w: replay dispatch of unknown job %q", ErrBadOp, id)
	}
	s.writable()
	delete(s.queued, id)
	s.running[id] = j
	return aux, nil
}

// Sched implements ReadViewer by copy-on-write: a view shares the two
// job maps, and the first write after a pin copies them (writable).
var _ ReadViewer = (*Sched)(nil)

type schedView struct{ queued, running map[string]*job }

// ReadView implements ReadViewer.
func (s *Sched) ReadView() (ReadView, bool) {
	s.pinned = true
	return schedView{s.queued, s.running}, true
}

// writable copies the job maps if a view may hold them.
func (s *Sched) writable() {
	if s.pinned {
		s.queued, s.running, s.pinned = maps.Clone(s.queued), maps.Clone(s.running), false
	}
}

// ReadExecute implements ReadView: a status read only.
func (v schedView) ReadExecute(op []byte) ([]byte, error) {
	if len(op) != 1 || op[0] != schStatus {
		return nil, fmt.Errorf("%w: scheduler op on a read-only view", ErrBadOp)
	}
	return jobStatus(v.queued, v.running), nil
}
