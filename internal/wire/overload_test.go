package wire

import (
	"bytes"
	"testing"
)

// TestOverloadRetryAfterRoundTrip: the retry-after hint survives the
// codec for StatusOverload replies across the uvarint width spectrum,
// including a zero hint (field present, value zero).
func TestOverloadRetryAfterRoundTrip(t *testing.T) {
	for _, ms := range []uint32{0, 1, 50, 127, 128, 65536, 1 << 30} {
		env := &Envelope{From: 1, To: ClientIDBase, Msg: &ReplyMsg{Rep: Reply{
			Client: ClientIDBase, Seq: 9, Status: StatusOverload,
			RetryAfterMS: ms,
		}}}
		got, err := DecodeEnvelope(EncodeEnvelope(nil, env))
		if err != nil {
			t.Fatalf("retry-after %d: %v", ms, err)
		}
		rep := &got.Msg.(*ReplyMsg).Rep
		if rep.Status != StatusOverload || rep.RetryAfterMS != ms {
			t.Fatalf("retry-after %d: decoded %+v", ms, rep)
		}
	}
}

// TestLegacyReplyIsByteCompatible: every reply status the pre-gateway
// protocol can produce must encode exactly as it did before the
// RetryAfterMS field existed — the field is status-gated, so a
// deployment with the gateway disabled emits bytes indistinguishable
// from a PR 8 binary (ISSUE 9 acceptance).
func TestLegacyReplyIsByteCompatible(t *testing.T) {
	legacy := []ReplyStatus{StatusOK, StatusNotLeader, StatusAborted, StatusError}
	for _, st := range legacy {
		rep := Reply{Client: ClientIDBase + 3, Seq: 41, Status: st,
			Leader: 2, Result: []byte("r"), Err: "e",
			// A stray hint on a legacy status must NOT leak onto the wire.
			RetryAfterMS: 999}
		buf := EncodeEnvelope(nil, &Envelope{From: 2, To: ClientIDBase + 3, Msg: &ReplyMsg{Rep: rep}})

		// Reconstruct the PR 8 layout by hand: envelope header, then
		// client, seq, status, leader, result, err — and nothing else.
		var enc Encoder
		enc.NodeID(2)
		enc.NodeID(ClientIDBase + 3)
		enc.Uint8(uint8(MsgReply))
		enc.NodeID(rep.Client)
		enc.Uvarint(rep.Seq)
		enc.Uint8(uint8(rep.Status))
		enc.NodeID(rep.Leader)
		enc.Bytes8(rep.Result)
		enc.String(rep.Err)
		if !bytes.Equal(buf, enc.Bytes()) {
			t.Fatalf("status %v: encoding differs from PR 8 layout:\n got %x\nwant %x", st, buf, enc.Bytes())
		}

		got, err := DecodeEnvelope(buf)
		if err != nil {
			t.Fatalf("status %v: %v", st, err)
		}
		if got.Msg.(*ReplyMsg).Rep.RetryAfterMS != 0 {
			t.Fatalf("status %v: phantom retry-after decoded", st)
		}
	}

	// And an overload reply must actually carry the field.
	over := EncodeEnvelope(nil, &Envelope{From: 2, To: ClientIDBase, Msg: &ReplyMsg{
		Rep: Reply{Client: ClientIDBase, Seq: 1, Status: StatusOverload, RetryAfterMS: 200}}})
	plain := EncodeEnvelope(nil, &Envelope{From: 2, To: ClientIDBase, Msg: &ReplyMsg{
		Rep: Reply{Client: ClientIDBase, Seq: 1, Status: StatusOverload}}})
	if bytes.Equal(over, plain) {
		t.Fatal("retry-after hint did not reach the wire")
	}
}
