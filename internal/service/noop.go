package service

import (
	"encoding/binary"
	"fmt"
)

// Noop is the paper's benchmark service (§4): every request invokes an
// empty method, so measurements isolate replication overhead. Its state
// is a few bytes — a version counter bumped by mutating operations —
// matching "the size of service state is small (a few bytes) in our
// experiments".
//
// Noop implements Transactional with fully concurrent, conflict-free
// workspaces, which is what lets the T-Paxos throughput curves (Figure 9)
// scale with the client count.
type Noop struct {
	version uint64
	gen     uint64 // bumped by Restore: it voids every open workspace
}

// NewNoop returns the benchmark service.
func NewNoop() *Noop { return &Noop{} }

var (
	_ Service       = (*Noop)(nil)
	_ Transactional = (*Noop)(nil)
)

// Execute implements Service: it does no work; any non-empty op bumps the
// version (treated as a write), an empty op is a pure read.
func (n *Noop) Execute(op []byte) ([]byte, error) {
	if len(op) > 0 {
		n.version++
	}
	return nil, nil
}

// Snapshot implements Service.
func (n *Noop) Snapshot() []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], n.version)
	return b[:]
}

// Restore implements Service. Workspaces open across it are void: a
// late Execute or Commit on one fails and changes nothing.
func (n *Noop) Restore(snap []byte) error {
	if len(snap) != 8 {
		return ErrBadOp
	}
	n.version = binary.LittleEndian.Uint64(snap)
	n.gen++
	return nil
}

// Version returns the mutation counter (for tests).
func (n *Noop) Version() uint64 { return n.version }

// Begin implements Transactional.
func (n *Noop) Begin(txn uint64) (Workspace, error) {
	return &noopWS{svc: n, gen: n.gen}, nil
}

type noopWS struct {
	svc    *Noop
	gen    uint64 // the service's generation at Begin
	writes uint64
	done   bool
}

// errRestored is what a workspace opened before a Restore answers.
var errRestored = fmt.Errorf("%w: the state was restored under the transaction", ErrConflict)

func (w *noopWS) Execute(op []byte) ([]byte, error) {
	if w.gen != w.svc.gen {
		return nil, errRestored
	}
	if len(op) > 0 {
		w.writes++
	}
	return nil, nil
}

func (w *noopWS) Commit() error {
	if w.gen != w.svc.gen {
		return errRestored
	}
	if !w.done {
		w.done = true
		w.svc.version += w.writes
	}
	return nil
}

func (w *noopWS) Abort() { w.done = true }

// Noop implements ReadViewer trivially: a read observes nothing, so the
// pinned view is stateless and always available.
var _ ReadViewer = (*Noop)(nil)

type noopView struct{}

// ReadView implements ReadViewer.
func (n *Noop) ReadView() (ReadView, bool) { return noopView{}, true }

// ReadExecute implements ReadView: only the empty (pure-read) op is
// read-only; anything else would bump the version and must go through
// the ordered write path.
func (noopView) ReadExecute(op []byte) ([]byte, error) {
	if len(op) > 0 {
		return nil, ErrBadOp
	}
	return nil, nil
}

// NoopFactory is a Factory for the benchmark service.
func NoopFactory() Service { return NewNoop() }

// Benchmark operation payloads for the three request classes of §4. The
// read op is empty (no state change); write and original ops carry one
// byte so Noop counts them as mutations.
var (
	NoopReadOp  = []byte(nil)
	NoopWriteOp = []byte{1}
)
