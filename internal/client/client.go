// Package client implements the client side of the replication protocol:
// every request is broadcast to all service replicas — so clients need
// not know which replica currently leads (§3.3) — and only the leader's
// reply is awaited. Lost requests and leader switches are handled by
// rebroadcasting with the same sequence number; the leader's reply cache
// makes retransmits safe (at-most-once execution).
//
// The transaction API drives T-Paxos (§3.5): operations inside a
// transaction are answered by the leader immediately; Commit triggers the
// single consensus round.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// Client errors.
var (
	// ErrAborted reports that the enclosing transaction was aborted by
	// the service (lock conflict) or by a leader switch (§3.6).
	ErrAborted = errors.New("client: transaction aborted")
	// ErrTimeout reports that no leader answered within the deadline.
	ErrTimeout = errors.New("client: request timed out")
	// ErrClosed reports use of a closed client.
	ErrClosed = errors.New("client: closed")
	// ErrOverloaded reports that the gateway shed the request at the
	// edge (StatusOverload, DESIGN.md §15) and no replica answered it
	// before the deadline. The request was never executed; retrying it
	// is safe.
	ErrOverloaded = errors.New("client: request shed by overloaded gateway")
)

// ServiceError wraps a StatusError reply from the service.
type ServiceError struct{ Msg string }

func (e *ServiceError) Error() string { return "service: " + e.Msg }

// Config assembles a client.
type Config struct {
	// Transport is the client's endpoint; its Local ID must be in the
	// client ID space.
	Transport transport.Transport
	// Replicas lists all service replicas.
	Replicas []wire.NodeID
	// RetryEvery is the base rebroadcast interval while waiting for a
	// reply (default 500ms). Successive rebroadcasts of one operation
	// back off exponentially from this base with full jitter, so a herd
	// of clients hammering a recovering cluster spreads itself out.
	RetryEvery time.Duration
	// RetryMax caps the exponential backoff between rebroadcasts
	// (default 8×RetryEvery).
	RetryMax time.Duration
	// Deadline bounds one operation end to end (default 30s).
	Deadline time.Duration
	// AbortOnOverload makes the first StatusOverload reply terminal: the
	// call returns ErrOverloaded immediately instead of honoring the
	// retry-after hint until the deadline. Production clients should
	// leave this off; open-loop measurement clients set it so that a
	// shed arrival is counted once and its worker freed, rather than
	// turning the shed into a client-side retry storm that inflates the
	// very offered load the sweep is trying to control.
	AbortOnOverload bool
	// NearRead routes reads through the nearest-replica path (DESIGN.md
	// §16): the first broadcast of every read is stamped with the
	// replica the transport reports the lowest RTT to, asking it to
	// serve the read from its local state once a voter quorum vouches.
	// Any rebroadcast drops the stamp and falls back to the leader
	// path, so a dead or partitioned near replica costs one retry
	// interval, never liveness. No-op when the transport cannot report
	// RTTs (unless NearPin names a replica explicitly).
	NearRead bool
	// NearPin, with NearRead, pins the near replica to NearReplica
	// instead of consulting transport RTTs — deployments that know
	// their geography (a client co-located with a specific replica)
	// skip the estimator warm-up. A pin naming a node outside Replicas
	// is dropped at construction: stamping a non-member would make
	// every replica vouch to a serving replica that does not exist, so
	// no one answers and each first read burns a retry interval.
	NearPin     bool
	NearReplica wire.NodeID
}

// Client issues requests to a replicated service. It is synchronous and
// single-threaded: one outstanding operation at a time, which is the
// closed-loop behaviour of the paper's test clients (§4).
type Client struct {
	cfg    Config
	id     wire.NodeID
	rng    *rand.Rand
	seq    uint64
	txnSeq uint64
	closed bool
}

// seedCounter decorrelates the jitter RNGs of clients created in the
// same nanosecond (a benchmark spawning a fleet in a tight loop): each
// construction draws a distinct count that is mixed into the seed, so
// identical timestamps can no longer produce identical backoff streams.
var seedCounter atomic.Uint64

// jitterSeed mixes the clock, the client ID, and the construction count
// into one well-spread seed (splitmix64 finalizer — consecutive inputs
// land far apart, unlike the raw XOR they replace).
func jitterSeed(id wire.NodeID) int64 {
	z := uint64(time.Now().UnixNano()) ^ uint64(id)<<32 ^ seedCounter.Add(1)
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// New returns a client over the given transport.
func New(cfg Config) *Client {
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 500 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 8 * cfg.RetryEvery
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 30 * time.Second
	}
	if cfg.NearPin && !contains(cfg.Replicas, cfg.NearReplica) {
		// See the NearPin doc: an invalid pin turns every first read
		// into a guaranteed retry. Fall back to the RTT estimator (or
		// the plain leader path when the transport has no estimates).
		cfg.NearPin = false
	}
	id := cfg.Transport.Local()
	return &Client{
		cfg: cfg,
		id:  id,
		rng: rand.New(rand.NewSource(jitterSeed(id))),
	}
}

// ID returns the client's node ID.
func (c *Client) ID() wire.NodeID { return c.id }

// Close releases the transport endpoint.
func (c *Client) Close() {
	if !c.closed {
		c.closed = true
		c.cfg.Transport.Close()
	}
}

// Read issues an X-Paxos-coordinated read (§3.4).
func (c *Client) Read(op []byte) ([]byte, error) { return c.do(wire.KindRead, 0, 0, op) }

// Write issues a write coordinated with the basic protocol (§3.3).
func (c *Client) Write(op []byte) ([]byte, error) { return c.do(wire.KindWrite, 0, 0, op) }

// Original issues an uncoordinated baseline request: the leader executes
// and replies immediately, exactly like an unreplicated service (§4).
func (c *Client) Original(op []byte) ([]byte, error) { return c.do(wire.KindOriginal, 0, 0, op) }

func (c *Client) do(kind wire.RequestKind, txn uint64, txnSeq uint32, op []byte) ([]byte, error) {
	if c.closed {
		return nil, ErrClosed
	}
	c.seq++
	req := wire.Request{
		Client: c.id,
		Seq:    c.seq,
		Kind:   kind,
		Txn:    txn,
		TxnSeq: txnSeq,
		Op:     op,
	}
	if kind == wire.KindRead && c.cfg.NearRead {
		if near, ok := c.nearestReplica(); ok {
			req.Near, req.NearSet = near, true
		}
	}
	deadline := time.Now().Add(c.cfg.Deadline)
	c.broadcast(&req)
	attempt := 0
	overloaded := false
	retry := time.NewTimer(retryBackoff(c.rng, c.cfg.RetryEvery, c.cfg.RetryMax, attempt, time.Until(deadline)))
	defer retry.Stop()
	for {
		select {
		case env, ok := <-c.cfg.Transport.Recv():
			if !ok {
				return nil, ErrClosed
			}
			rm, ok := env.Msg.(*wire.ReplyMsg)
			if !ok || rm.Rep.Seq != c.seq {
				continue // stale or foreign message
			}
			switch rm.Rep.Status {
			case wire.StatusOK:
				return rm.Rep.Result, nil
			case wire.StatusAborted:
				// Terminal: retrying cannot help (the transaction is
				// dead), so stop rather than rebroadcast.
				return nil, fmt.Errorf("%w: %s", ErrAborted, rm.Rep.Err)
			case wire.StatusError:
				// Terminal: the service rejected the operation itself.
				return nil, &ServiceError{Msg: rm.Rep.Err}
			case wire.StatusNotLeader:
				// Keep waiting; the rebroadcast timer covers the case
				// where no real leader saw the request.
				continue
			case wire.StatusOverload:
				if c.cfg.AbortOnOverload {
					// Measurement mode: the shed is the outcome.
					if rm.Rep.Err != "" {
						return nil, fmt.Errorf("%w: %s", ErrOverloaded, rm.Rep.Err)
					}
					return nil, ErrOverloaded
				}
				// One edge shed the request — but it was broadcast, so
				// the leader may still answer. Keep waiting, and honor
				// the typed retry-after hint in place of the blind
				// exponential backoff: the next rebroadcast fires when
				// the gateway said there may be room, not sooner.
				overloaded = true
				wait := time.Duration(rm.Rep.RetryAfterMS) * time.Millisecond
				if wait <= 0 {
					wait = c.cfg.RetryEvery
				}
				if remain := time.Until(deadline); wait > remain {
					wait = remain
				}
				if wait <= 0 {
					return nil, fmt.Errorf("%w: %s", ErrOverloaded, rm.Rep.Err)
				}
				if !retry.Stop() {
					select {
					case <-retry.C:
					default:
					}
				}
				retry.Reset(wait)
				continue
			}
		case <-retry.C:
			if !time.Now().Before(deadline) {
				if overloaded {
					// The last word from the cluster was a shed: report
					// the typed overload, not a generic timeout.
					return nil, ErrOverloaded
				}
				return nil, ErrTimeout
			}
			attempt++
			// A rebroadcast drops the Near stamp: if the nearest
			// replica could not assemble its quorum (down,
			// partitioned), the leader path is the liveness backstop.
			req.Near, req.NearSet = 0, false
			c.broadcast(&req)
			retry.Reset(retryBackoff(c.rng, c.cfg.RetryEvery, c.cfg.RetryMax, attempt, time.Until(deadline)))
		}
	}
}

// retryBackoff returns how long to wait before rebroadcast number
// attempt+1: exponential in the attempt count with full jitter (uniform
// over (0, base·2^attempt]), capped at max, and never sleeping past the
// operation deadline (remain) — the retry that would cross it wakes
// exactly on it to report the timeout.
func retryBackoff(rng *rand.Rand, base, max time.Duration, attempt int, remain time.Duration) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if d <= 0 {
		// A non-positive window (zero-valued config reaching here, or a
		// base so large that doubling overflowed) would panic Int63n;
		// floor it to one tick so the jitter draw stays valid.
		d = 1
	}
	d = time.Duration(rng.Int63n(int64(d))) + 1
	if remain > 0 && d > remain {
		d = remain
	}
	return d
}

// nearestReplica picks the replica to stamp on a near read: the pinned
// one, or the lowest-RTT replica per the transport's estimator. False
// when no replica has an estimate yet (cold client) — the read then
// takes the ordinary leader path.
func (c *Client) nearestReplica() (wire.NodeID, bool) {
	if c.cfg.NearPin {
		return c.cfg.NearReplica, true
	}
	rr, ok := c.cfg.Transport.(transport.RTTReporter)
	if !ok {
		return 0, false
	}
	var best wire.NodeID
	bestRTT := time.Duration(-1)
	for _, rep := range c.cfg.Replicas {
		if d, ok := rr.PeerRTT(rep); ok && (bestRTT < 0 || d < bestRTT) {
			best, bestRTT = rep, d
		}
	}
	return best, bestRTT >= 0
}

func contains(ids []wire.NodeID, id wire.NodeID) bool {
	for _, n := range ids {
		if n == id {
			return true
		}
	}
	return false
}

func (c *Client) broadcast(req *wire.Request) {
	for _, rep := range c.cfg.Replicas {
		c.cfg.Transport.Send(&wire.Envelope{To: rep, Msg: &wire.RequestMsg{Req: *req}})
	}
}

// Txn is an open T-Paxos transaction.
type Txn struct {
	c    *Client
	id   uint64
	n    uint32 // ops issued so far
	dead bool
}

// Begin opens a transaction. No message is sent until the first Do.
func (c *Client) Begin() *Txn {
	c.txnSeq++
	return &Txn{c: c, id: c.txnSeq}
}

// Do executes one operation inside the transaction. The leader answers
// immediately, without coordinating with the backups (§3.5). A returned
// ErrAborted means the whole transaction is dead.
func (t *Txn) Do(op []byte) ([]byte, error) {
	if t.dead {
		return nil, ErrAborted
	}
	res, err := t.c.do(wire.KindTxnOp, t.id, t.n, op)
	if err != nil {
		if errors.Is(err, ErrAborted) {
			t.dead = true
		}
		return nil, err
	}
	t.n++
	return res, nil
}

// Commit atomically applies the transaction: the replicas agree on the
// whole transaction and the resulting state in one consensus instance.
func (t *Txn) Commit() error {
	if t.dead {
		return ErrAborted
	}
	t.dead = true
	_, err := t.c.do(wire.KindTxnCommit, t.id, t.n, nil)
	return err
}

// Abort discards the transaction on the leader.
func (t *Txn) Abort() error {
	if t.dead {
		return nil
	}
	t.dead = true
	_, err := t.c.do(wire.KindTxnAbort, t.id, t.n, nil)
	return err
}
