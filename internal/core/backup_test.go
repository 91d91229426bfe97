package core

import (
	"testing"

	"gridrep/internal/paxos"
	"gridrep/internal/wire"
)

// TestPreparingStandsDownWhenSuffixIsGone: a replica awaiting catch-up
// after its prepare is answered with a snapshot chunk — the peer it asked
// no longer holds the effects above its state. It cannot lead from there:
// it must return to the backup role and pull the stream.
func TestPreparingStandsDownWhenSuffixIsGone(t *testing.T) {
	r, tr := bareReplica(t)
	r.bal = wire.Ballot{Round: 3, Node: 1}
	r.role, r.awaitCatchup = RolePreparing, true
	r.prep = paxos.NewPrepareRound(r.bal, 2)

	// A stray mid-stream chunk opens no stream and costs no leadership bid.
	r.onSnapChunk(&wire.SnapChunk{From: 2, SnapAt: 40, Total: 8, Offset: 4, Data: []byte{5, 6, 7, 8}})
	if r.role != RolePreparing || r.snapFetch != nil {
		t.Fatalf("a mid-stream chunk of no stream moved the replica: role=%v fetch=%+v", r.role, r.snapFetch)
	}

	r.onSnapChunk(&wire.SnapChunk{From: 2, SnapAt: 40, Total: 8, Offset: 0, Data: []byte{1, 2, 3, 4}})

	if r.role != RoleBackup || r.awaitCatchup || r.prep != nil {
		t.Fatalf("role=%v awaitCatchup=%v prep=%v after the chunk; want a plain backup", r.role, r.awaitCatchup, r.prep)
	}
	if r.snapFetch == nil || r.snapFetch.from != 2 || len(r.snapFetch.buf) != 4 {
		t.Fatalf("snapshot fetch = %+v; want the stream from r2 under way", r.snapFetch)
	}
	if len(tr.sent) != 1 {
		t.Fatalf("sent %d envelopes, want one SnapReq", len(tr.sent))
	}
	if req, ok := tr.sent[0].Msg.(*wire.SnapReq); !ok || tr.sent[0].To != 2 || req.Offset != 4 || req.SnapAt != 40 {
		t.Fatalf("sent %+v to %v, want SnapReq{SnapAt:40 Offset:4} to r2", tr.sent[0].Msg, tr.sent[0].To)
	}

	// An active leader is not a requester: a stray chunk changes nothing.
	lead(r, r.bal)
	r.snapFetch = nil
	r.onSnapChunk(&wire.SnapChunk{From: 2, SnapAt: 40, Total: 8, Offset: 0, Data: []byte{1, 2, 3, 4}})
	if r.role != RoleLeading || r.snapFetch != nil {
		t.Fatalf("a leader reacted to a snapshot chunk: role=%v fetch=%+v", r.role, r.snapFetch)
	}
}
