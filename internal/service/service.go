// Package service defines the replicated service abstraction and ships
// the services used by the examples and benchmarks.
//
// Services may be nondeterministic (§2): executing the same operation
// from the same state on two replicas may produce different results —
// randomized resource brokers, schedulers whose decisions depend on
// examination timing, anything consulting local time or random numbers.
// The replication protocol therefore executes every operation exactly
// once, on the leader, and replicates the resulting state (§3.3). A
// Service must be able to externalize that state (Snapshot) and adopt a
// peer's state (Restore); it never needs deterministic re-execution.
package service

import (
	"errors"
	"sync"
)

// Common service errors.
var (
	// ErrConflict reports a transactional lock conflict; the enclosing
	// transaction must abort (§3.5: concurrent transactions are handled
	// "using locks or other mechanisms").
	ErrConflict = errors.New("service: transaction conflict")
	// ErrBadOp reports an operation payload the service cannot parse.
	ErrBadOp = errors.New("service: malformed operation")
)

// Service is a replicated application. Implementations are driven by a
// single replica goroutine and need no internal locking.
//
// Every entry point of a Service and of the capabilities below keeps two
// rules, whatever bytes a client sends: malformed op bytes are an error,
// never a panic; and an op that returns an error leaves Snapshot
// byte-equal, because the leader proposes nothing for it and the
// backups never see it. The conformance suite (conformance_test.go)
// checks both, with the rest of the contract, for every shipped service.
type Service interface {
	// Execute applies one operation and returns its reply. Execution
	// may be nondeterministic and may mutate state; the protocol layer
	// captures the post-execution state via Snapshot.
	Execute(op []byte) ([]byte, error)
	// Snapshot returns an opaque, self-contained encoding of the
	// current state.
	Snapshot() []byte
	// Restore replaces the current state with a snapshot produced by
	// Snapshot on any replica.
	Restore(snap []byte) error
}

// Transactional is implemented by services that support concurrent
// T-Paxos transactions natively (with per-item locking). Transactions on
// any other service are serialized by the replica: one at a time, its
// ops run on the live state while all other writes wait, and an abort
// re-derives the state from the replica's durable snapshot and log.
type Transactional interface {
	Service
	// Begin opens a workspace for a transaction. It returns ErrConflict
	// if the service cannot admit another transaction right now.
	Begin(txn uint64) (Workspace, error)
}

// Workspace is the execution context of one open transaction. Operations
// executed in a workspace are isolated from the base service until
// Commit. Commit and Abort finish it: Execute, Commit and Differ's
// CommitDelta on a finished workspace change nothing. The service's
// Restore voids every workspace open across it: on such a workspace
// Execute, Commit and CommitDelta return an error and change nothing.
type Workspace interface {
	// Execute applies one operation inside the transaction. A returned
	// ErrConflict aborts the whole transaction.
	Execute(op []byte) ([]byte, error)
	// Commit atomically applies the workspace to the base service.
	Commit() error
	// Abort discards the workspace.
	Abort()
}

// Factory creates a fresh service instance; each replica owns one, and
// one more as AsReadViewer's scratch when the service is no ReadViewer.
type Factory func() Service

// Differ is the §3.3 "exchange only the updated state" optimization: the
// service expresses each operation's effect as a delta against the
// pre-operation state. Replicas holding the previous state apply deltas
// instead of adopting full snapshots, shrinking state transfer. A Differ
// is Transactional, and its transactions commit as one delta too — the
// write set, not the state — so every write the replica proposes is a
// delta.
type Differ interface {
	Transactional
	// ExecuteDelta executes op (possibly nondeterministically) and
	// additionally returns a delta: ApplyDelta(delta) on a replica
	// holding the pre-operation state reproduces the post-operation
	// state exactly.
	ExecuteDelta(op []byte) (reply, delta []byte, err error)
	// ApplyDelta applies a delta produced by ExecuteDelta or
	// CommitDelta.
	ApplyDelta(delta []byte) error
	// CommitDelta commits ws (from Begin) as ws.Commit would and returns
	// the delta reproducing it on a replica at the pre-commit state.
	CommitDelta(ws Workspace) (delta []byte, err error)
}

// ReadView is an immutable snapshot of a service's state, pinned at the
// moment ReadViewer.ReadView returned it. Unlike every other service
// surface it is NOT confined to the replica's event loop: the replica
// hands views to a worker pool that executes X-Paxos reads concurrently,
// so ReadExecute must be safe for simultaneous calls from many
// goroutines and must keep observing exactly the pinned state no matter
// what the owning service mutates afterwards.
type ReadView interface {
	// ReadExecute applies one read-only operation against the pinned
	// state and returns what Execute would have returned at the pin. It
	// must not mutate anything (neither the view nor the owning service)
	// and must reject every operation that would, with ErrBadOp: a
	// client can send any op as a read.
	ReadExecute(op []byte) ([]byte, error)
}

// ReadViewer is a service that can pin an immutable view of its current
// state — by copy-on-write, epoch pinning, or any other scheme. The
// replica runs every read through a view pinned at its commit point, so
// reads run beside speculative writes and open transactions, in
// parallel off the event loop or inline. A service that does not
// implement it reads through AsReadViewer's snapshot adapter.
type ReadViewer interface {
	Service
	// ReadView pins the current state. ok is false when the state cannot
	// be pinned right now; the reads that needed the pin wait until one
	// succeeds.
	ReadView() (ReadView, bool)
}

// AsReadViewer returns svc's native ReadViewer, or adapts it: a view
// pins svc's Snapshot, and each read restores it into one scratch
// instance from newScratch, built once here, and executes there, one
// read at a time. An op after which the scratch's Snapshot differs from
// the pinned one is refused with ErrBadOp, so the adapter keeps the
// ReadView contract whatever Execute does. Correct and slow: a pin and
// a read each copy the whole state.
func AsReadViewer(svc Service, newScratch Factory) ReadViewer {
	if v, ok := svc.(ReadViewer); ok {
		return v
	}
	return &snapshotViewer{Service: svc, scratch: newScratch()}
}

type snapshotViewer struct {
	Service
	mu      sync.Mutex
	scratch Service
}

func (s *snapshotViewer) ReadView() (ReadView, bool) {
	snap := s.Snapshot()
	return readFunc(func(op []byte) ([]byte, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.scratch.Restore(snap); err != nil {
			return nil, err
		}
		res, err := s.scratch.Execute(op)
		if string(s.scratch.Snapshot()) != string(snap) {
			return nil, ErrBadOp
		}
		return res, err
	}), true
}

// readFunc is a ReadView made of its ReadExecute.
type readFunc func(op []byte) ([]byte, error)

func (f readFunc) ReadExecute(op []byte) ([]byte, error) { return f(op) }

// Replayer is the §3.3 "request plus additional information" optimization:
// the nondeterministic operation can be reproduced from the request and
// the choices the leader actually made, so replicas exchange only that
// information and regenerate the state by deterministic re-execution.
type Replayer interface {
	Service
	// ExecuteCapture executes op and returns the reply together with
	// the captured nondeterministic choices (aux). Deterministic
	// operations may return nil aux.
	ExecuteCapture(op []byte) (reply, aux []byte, err error)
	// Replay re-executes op deterministically given aux, reproducing
	// the leader's state transition and reply.
	Replay(op, aux []byte) (reply []byte, err error)
}
