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

import "errors"

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
// T-Paxos transactions natively (with per-item locking). Services that do
// not implement it are wrapped by Serialize, which provides one-at-a-time
// transactions via snapshot/undo.
type Transactional interface {
	Service
	// Begin opens a workspace for a transaction. It returns ErrConflict
	// if the service cannot admit another transaction right now.
	Begin(txn uint64) (Workspace, error)
}

// Workspace is the execution context of one open transaction. Operations
// executed in a workspace are isolated from the base service until
// Commit.
type Workspace interface {
	// Execute applies one operation inside the transaction. A returned
	// ErrConflict aborts the whole transaction.
	Execute(op []byte) ([]byte, error)
	// Commit atomically applies the workspace to the base service.
	Commit() error
	// Abort discards the workspace.
	Abort()
}

// Factory creates a fresh service instance; each replica owns one.
type Factory func() Service

// AsTransactional returns svc's native transactional interface, or wraps
// it with Serialize.
func AsTransactional(svc Service) Transactional {
	if t, ok := svc.(Transactional); ok {
		return t
	}
	return Serialize(svc)
}

// serialized adapts any Service to Transactional by admitting one
// transaction at a time and keeping an undo snapshot.
type serialized struct {
	Service
	busy bool
}

// Serialize wraps a non-transactional service so T-Paxos can still run
// against it: one transaction at a time, with abort implemented by
// restoring the pre-transaction snapshot.
func Serialize(svc Service) Transactional { return &serialized{Service: svc} }

func (s *serialized) Begin(txn uint64) (Workspace, error) {
	if s.busy {
		return nil, ErrConflict
	}
	s.busy = true
	return &serialWS{s: s, undo: s.Snapshot()}, nil
}

type serialWS struct {
	s    *serialized
	undo []byte
	done bool
}

func (w *serialWS) Execute(op []byte) ([]byte, error) {
	if w.done {
		return nil, ErrConflict
	}
	return w.s.Service.Execute(op)
}

func (w *serialWS) Commit() error {
	if w.done {
		return nil
	}
	w.done = true
	w.s.busy = false
	return nil
}

func (w *serialWS) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.s.busy = false
	// Ignoring the error is safe: undo came from this very service's
	// Snapshot moments ago.
	_ = w.s.Service.Restore(w.undo)
}

// Exclusive is implemented by Transactional services that admit only one
// transaction at a time and execute transaction operations directly
// against base state (the Serialize adapter). The replica serializes all
// other work around such transactions.
type Exclusive interface {
	ExclusiveTxns() bool
}

// ExclusiveTxns implements Exclusive.
func (s *serialized) ExclusiveTxns() bool { return true }

// IsExclusive reports whether t serializes transactions.
func IsExclusive(t Transactional) bool {
	e, ok := t.(Exclusive)
	return ok && e.ExclusiveTxns()
}

// Differ is the §3.3 "exchange only the updated state" optimization: the
// service expresses each operation's effect as a delta against the
// pre-operation state. Replicas holding the previous state apply deltas
// instead of adopting full snapshots, shrinking state transfer.
type Differ interface {
	Service
	// ExecuteDelta executes op (possibly nondeterministically) and
	// additionally returns a delta: ApplyDelta(delta) on a replica
	// holding the pre-operation state reproduces the post-operation
	// state exactly.
	ExecuteDelta(op []byte) (reply, delta []byte, err error)
	// ApplyDelta applies a delta produced by ExecuteDelta.
	ApplyDelta(delta []byte) error
}

// TxnDiffer is a Differ whose native transactions commit as one delta —
// the write set, not the state — in the format ApplyDelta reads.
type TxnDiffer interface {
	Differ
	Transactional
	// CommitDelta commits ws (from Begin) as ws.Commit would and returns
	// the delta reproducing it on a replica at the pre-commit state.
	CommitDelta(ws Workspace) (delta []byte, err error)
}

// Sharder is implemented by services whose operations address a single
// key, enabling sharded deployments (DESIGN.md §13) to route each
// operation to one of N independent consensus groups by hashing that
// key. Services without Sharder still shard — the router hashes the
// whole operation encoding, which spreads load but gives no affinity
// guarantee between operations that touch the same logical datum.
type Sharder interface {
	Service
	// ShardKey extracts the routing key from an operation encoding. ok
	// is false when the operation does not address a single key (the
	// router then falls back to hashing op itself). ShardKey must be
	// pure and must not retain op.
	ShardKey(op []byte) (key []byte, ok bool)
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
	// state. It must not mutate anything (neither the view nor the
	// owning service) and must reject operations that would.
	ReadExecute(op []byte) ([]byte, error)
}

// ReadViewer is implemented by services that can pin an immutable view
// of their current state — by copy-on-write, epoch pinning, or any other
// scheme — enabling the replica to execute reads in parallel off the
// event loop while writes keep mutating the live state. Services without
// ReadViewer still serve reads; they just execute inline on the event
// loop, the pre-parallelism behavior.
type ReadViewer interface {
	Service
	// ReadView pins the current state. ok is false when the state cannot
	// be pinned right now (e.g. open transactions hold locks whose
	// conflict semantics a concurrent frozen view could not honor); the
	// caller then falls back to inline execution.
	ReadView() (ReadView, bool)
}

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
