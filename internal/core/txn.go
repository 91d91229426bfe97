package core

import (
	"errors"

	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// T-Paxos (§3.5): within a transaction the leader executes each request
// against a workspace and replies immediately, with no coordination; one
// consensus instance at commit carries the whole transaction and its
// effect (startWave). Aborts are leader-local. A leader switch aborts every
// open transaction (§3.6) — a new leader answers continuations of
// transactions it never saw with StatusAborted.

type txnKey struct {
	client wire.NodeID
	txn    uint64
}

type txnState struct {
	key        txnKey
	ws         service.Workspace
	ops        []wire.Request
	results    [][]byte
	aux        [][]byte // per op: the choices it captured (nil outside replay mode)
	nextSeq    uint32   // expected TxnSeq of the next operation
	committing bool
	exclusive  bool
}

// txnUID derives the service-level transaction ID from the client and its
// transaction number, so IDs never collide across clients.
func txnUID(k txnKey) uint64 {
	return uint64(k.client)<<32 | (k.txn & 0xffffffff)
}

func (r *Replica) onTxnRequest(req wire.Request) {
	r.writers[req.Client] = r.now
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
		if tx != nil {
			tx.ws.Abort()
			r.finishTxn(tx)
		}
		// Aborting an unknown transaction is idempotent success: the
		// client only wants it gone.
		r.reply(req, wire.StatusOK, nil, "")
		r.drainBlocked()
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
		ws, err := r.txnSvc.Begin(txnUID(key))
		if err != nil {
			r.reply(req, wire.StatusError, nil, err.Error())
			return
		}
		tx = &txnState{key: key, ws: ws, exclusive: r.exclus}
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
	if r.mode == stateReplay {
		// Serialize'd (New), so the op runs on the base state either way.
		res, aux, err = r.replayer.ExecuteCapture(req.Op)
	} else {
		res, err = tx.ws.Execute(req.Op)
	}
	if err != nil {
		if errors.Is(err, service.ErrConflict) {
			// Lock conflict: wound the transaction (§3.5).
			tx.ws.Abort()
			r.finishTxn(tx)
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

// finishTxn drops the transaction and unblocks work that waited behind an
// exclusive one.
func (r *Replica) finishTxn(tx *txnState) {
	delete(r.txns, tx.key)
	if tx.exclusive {
		r.drainBlocked()
	}
}
