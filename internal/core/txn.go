package core

import (
	"errors"

	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// T-Paxos (§3.5): within a transaction the leader executes each request
// and replies immediately, with no coordination; one consensus instance
// at commit carries the whole transaction and its effect (startWave).
// A natively transactional service executes it in a workspace. Any other
// service's transactions are exclusive: one at a time, its ops run on
// the live state exactly as writes do (executeWrite), and nothing else
// writes until it ends. Aborts are leader-local: a workspace is
// discarded, an exclusive transaction's state re-derived (abortTxn). A
// leader switch aborts every open transaction (§3.6) — a new leader
// answers continuations of transactions it never saw with StatusAborted.

type txnKey struct {
	client wire.NodeID
	txn    uint64
}

type txnState struct {
	key        txnKey
	ws         service.Workspace // nil for an exclusive transaction
	ops        []wire.Request
	results    [][]byte
	aux        [][]byte // per op: the choices it captured (nil outside replay mode)
	nextSeq    uint32   // expected TxnSeq of the next operation
	committing bool
	view       service.ReadView // exclusive: the state before its first op (reads.go)
}

// txnUID derives the service-level transaction ID from the client and its
// transaction number, so IDs never collide across clients.
func txnUID(k txnKey) uint64 {
	return uint64(k.client)<<32 | (k.txn & 0xffffffff)
}

func (r *Replica) onTxnRequest(req wire.Request) {
	key := txnKey{client: req.Client, txn: req.Txn}
	tx := r.txns[key]

	switch req.Kind {
	case wire.KindTxnOp:
		r.onTxnOp(key, tx, req)
	case wire.KindTxnCommit:
		if tx == nil {
			r.replyCommitDup(req)
			return
		}
		if tx.committing {
			return // duplicate commit; reply comes when the wave lands
		}
		tx.committing = true
		r.pending[req.Key()] = true
		r.queue = append(r.queue, workItem{req: req, txn: tx, at: r.now})
		r.maybeStartWave()
	case wire.KindTxnAbort:
		if tx != nil && tx.committing {
			// Its commit is queued or in flight, and its outcome stands.
			r.reply(req, wire.StatusError, nil, "transaction is committing")
			return
		}
		if tx != nil {
			r.abortTxn(tx)
		}
		// Aborting an unknown transaction is idempotent success: the
		// client only wants it gone.
		r.reply(req, wire.StatusOK, nil, "")
	}
}

func (r *Replica) onTxnOp(key txnKey, tx *txnState, req wire.Request) {
	if tx == nil {
		if req.TxnSeq != 0 {
			// Continuation of a transaction this leader never began:
			// it died with the previous leader (§3.6).
			r.reply(req, wire.StatusAborted, nil, "transaction lost in leader switch")
			return
		}
		if r.exclusiveBusy() {
			// Serialized services admit one transaction at a time;
			// park the opening op until the current one finishes.
			r.blocked = append(r.blocked, req)
			return
		}
		tx = &txnState{key: key}
		if r.native != nil {
			ws, err := r.native.Begin(txnUID(key))
			if err != nil {
				r.reply(req, wire.StatusError, nil, err.Error())
				return
			}
			tx.ws = ws
		} else {
			// Its ops run on the live state: reads run on the state
			// before them, and no write runs until it ends — the ones
			// queued behind a wave wait with the blocked.
			tx.view, _ = r.svc.ReadView()
			for _, it := range r.queue {
				delete(r.pending, it.req.Key())
				r.blocked = append(r.blocked, it.req)
			}
			r.queue = nil
		}
		r.txns[key] = tx
	}

	if tx.committing {
		return // ops after commit are client bugs; ignore
	}
	switch {
	case req.TxnSeq < tx.nextSeq:
		// Retransmit of an op we already executed: re-reply.
		r.reply(req, wire.StatusOK, tx.results[req.TxnSeq], "")
		return
	case req.TxnSeq > tx.nextSeq:
		// An earlier op was lost; the client retransmits in order, so
		// just drop this one.
		return
	}

	var res, aux []byte
	var err error
	if tx.ws != nil {
		res, err = tx.ws.Execute(req.Op)
	} else {
		// Exclusive: the op runs on the live state as a write does,
		// capturing its choices in replay mode (never delta: see New).
		var prop wire.Proposal
		prop, err = r.executeWrite(req)
		res = prop.Results[0]
		if prop.Aux != nil {
			aux = prop.Aux[0]
		}
	}
	if err != nil {
		if errors.Is(err, service.ErrConflict) {
			// Lock conflict: wound the transaction (§3.5).
			r.abortTxn(tx)
			r.reply(req, wire.StatusAborted, nil, err.Error())
			return
		}
		r.reply(req, wire.StatusError, nil, err.Error())
		return
	}
	tx.ops = append(tx.ops, req)
	tx.results = append(tx.results, res)
	tx.aux = append(tx.aux, aux)
	tx.nextSeq++
	// The T-Paxos fast path: reply with no replica coordination.
	r.reply(req, wire.StatusOK, res, "")
}

// replyCommitDup answers a commit for an unknown transaction: either it
// already committed (answer from the reply cache) or it died with the old
// leader (abort).
func (r *Replica) replyCommitDup(req wire.Request) {
	if r.dedup(req) {
		return
	}
	r.reply(req, wire.StatusAborted, nil, "transaction lost in leader switch")
}

// abortTxn ends an open transaction without effect. A native one
// discards its workspace. An exclusive one ran on the live state, which
// is re-derived from the durable snapshot and the chosen log — then the
// client wave still in flight, launched before the transaction opened,
// is applied again: its effect is not chosen yet, but it stands, and
// applied stays at the commit index until the wave commits. A
// configuration wave has no effect on the service to apply.
func (r *Replica) abortTxn(tx *txnState) {
	if tx.ws != nil {
		tx.ws.Abort()
	} else {
		r.rederive()
		if w := r.wave; w != nil {
			for _, e := range w.entries {
				if !e.Prop.IsConfig() && !r.applyEntry(e.Instance, &e.Prop) {
					break
				}
			}
			r.applied = r.acc.Chosen()
		}
	}
	r.finishTxn(tx)
}

// finishTxn drops the transaction and unblocks work that waited behind an
// exclusive one.
func (r *Replica) finishTxn(tx *txnState) {
	delete(r.txns, tx.key)
	r.drainBlocked()
}
