package wire

import (
	"bytes"
	"errors"
	"testing"
)

// The §16 geo fields — Confirm.MaxAcc and Heartbeat.Cost — are
// presence-gated trailing extensions, mirroring Request's nearFlag:
// messages that do not carry them must encode byte-for-byte as the
// pre-§16 format (what an old binary emits and the only thing it can
// decode), and a new decoder must accept both forms. These tests pin
// the rolling-upgrade contract: a new binary decodes what an old one
// emits.

// legacyConfirmBytes hand-builds the pre-§16 encoding of a Confirm
// envelope: ballot, sender, reads — and no trailing MaxAcc.
func legacyConfirmBytes(from, to NodeID, m *Confirm) []byte {
	enc := NewEncoder(nil)
	enc.NodeID(from)
	enc.NodeID(to)
	enc.Uint8(uint8(MsgConfirm))
	enc.Ballot(m.Bal)
	enc.NodeID(m.From)
	enc.Uvarint(uint64(len(m.Reads)))
	for _, k := range m.Reads {
		enc.NodeID(k.Client)
		enc.Uvarint(k.Seq)
	}
	return enc.Bytes()
}

// legacyHeartbeatBytes hand-builds the pre-§16 encoding of a Heartbeat
// envelope: no trailing Cost.
func legacyHeartbeatBytes(from, to NodeID, m *Heartbeat) []byte {
	enc := NewEncoder(nil)
	enc.NodeID(from)
	enc.NodeID(to)
	enc.Uint8(uint8(MsgHeartbeat))
	enc.NodeID(m.From)
	enc.Uvarint(m.Epoch)
	enc.NodeID(m.Leader)
	enc.Uvarint(m.Chosen)
	enc.Uvarint(m.Applied)
	return enc.Bytes()
}

func TestConfirmWithoutStampIsLegacyFormat(t *testing.T) {
	m := &Confirm{Bal: Ballot{5, 2}, From: 1, Reads: []Key{{ClientIDBase + 3, 17}}}
	got := EncodeEnvelope(nil, &Envelope{From: 1, To: 2, Msg: m})
	want := legacyConfirmBytes(1, 2, m)
	if !bytes.Equal(got, want) {
		t.Fatalf("unstamped confirm encoding diverged from the pre-geo format:\n got %x\nwant %x", got, want)
	}
}

func TestConfirmDecodesLegacyFormat(t *testing.T) {
	m := &Confirm{Bal: Ballot{9, 1}, From: 2, Reads: []Key{{ClientIDBase, 4}, {ClientIDBase + 1, 8}}}
	env, err := DecodeEnvelope(legacyConfirmBytes(2, 0, m))
	if err != nil {
		t.Fatalf("legacy confirm rejected: %v", err)
	}
	got := env.Msg.(*Confirm)
	if got.MaxAccSet {
		t.Fatal("legacy confirm decoded with MaxAccSet — an absent barrier claim must not be invented")
	}
	if got.MaxAcc != 0 || !got.Bal.Equal(m.Bal) || len(got.Reads) != 2 {
		t.Fatalf("legacy confirm decoded as %+v", got)
	}
}

func TestConfirmStampRoundTrips(t *testing.T) {
	m := &Confirm{Bal: Ballot{5, 2}, From: 1, Reads: []Key{{ClientIDBase + 3, 17}}, MaxAcc: 91, MaxAccSet: true}
	buf := EncodeEnvelope(nil, &Envelope{From: 1, To: 2, Msg: m})
	env, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := env.Msg.(*Confirm)
	if !got.MaxAccSet || got.MaxAcc != 91 {
		t.Fatalf("stamp lost in round trip: MaxAccSet=%v MaxAcc=%d", got.MaxAccSet, got.MaxAcc)
	}
}

func TestHeartbeatWithoutCostIsLegacyFormat(t *testing.T) {
	m := &Heartbeat{From: 0, Epoch: 3, Leader: 0, Chosen: 99, Applied: 98}
	got := EncodeEnvelope(nil, &Envelope{From: 0, To: 1, Msg: m})
	want := legacyHeartbeatBytes(0, 1, m)
	if !bytes.Equal(got, want) {
		t.Fatalf("costless heartbeat encoding diverged from the pre-geo format:\n got %x\nwant %x", got, want)
	}
}

func TestHeartbeatDecodesLegacyFormat(t *testing.T) {
	m := &Heartbeat{From: 1, Epoch: 12, Leader: 1, Chosen: 7, Applied: 7}
	env, err := DecodeEnvelope(legacyHeartbeatBytes(1, 2, m))
	if err != nil {
		t.Fatalf("legacy heartbeat rejected: %v", err)
	}
	got := env.Msg.(*Heartbeat)
	if got.Cost != 0 {
		t.Fatalf("legacy heartbeat decoded with cost %d, want the unknown sentinel 0", got.Cost)
	}
	if got.Epoch != 12 || got.Chosen != 7 {
		t.Fatalf("legacy heartbeat decoded as %+v", got)
	}
}

// TestGroupedEnvelopeRefused: a type byte with bit 0x80 set once
// flagged a uvarint consensus-group field after it. No process hosts a
// second group any longer, so such an envelope is refused with
// ErrBadType, never decoded as some other message; the group-0 form
// beside it, a bare type byte, still decodes.
func TestGroupedEnvelopeRefused(t *testing.T) {
	m := &Commit{Bal: Ballot{3, 1}, Index: 42}
	plain := EncodeEnvelope(nil, &Envelope{From: 2, To: 0, Msg: m})
	if _, err := DecodeEnvelope(plain); err != nil {
		t.Fatalf("group-0 envelope refused: %v", err)
	}
	// The grouped layout: from, to, type|0x80, uvarint group 7, body.
	grouped := append([]byte{plain[0], plain[1], plain[2] | 0x80, 7}, plain[3:]...)
	if _, err := DecodeEnvelope(grouped); !errors.Is(err, ErrBadType) {
		t.Fatalf("grouped envelope: err = %v, want ErrBadType", err)
	}
	if _, err := DecodeEnvelopeOwned(grouped); !errors.Is(err, ErrBadType) {
		t.Fatalf("grouped envelope, owned decode: err = %v, want ErrBadType", err)
	}
}

// TestReplyStatusNumbers pins the status bytes on the wire. 4 stays
// reserved: it was the cross-group refusal, and StatusOverload keeps 5.
func TestReplyStatusNumbers(t *testing.T) {
	for st, want := range map[ReplyStatus]byte{
		StatusOK: 0, StatusAborted: 1, StatusNotLeader: 2, StatusError: 3, StatusOverload: 5,
	} {
		if byte(st) != want {
			t.Fatalf("%v = %d on the wire, want %d", st, byte(st), want)
		}
	}
	buf := EncodeEnvelope(nil, &Envelope{From: 1, To: ClientIDBase, Msg: &ReplyMsg{Rep: Reply{
		Client: ClientIDBase, Seq: 1, Status: StatusOverload, RetryAfterMS: 9}}})
	var enc Encoder
	enc.NodeID(1)
	enc.NodeID(ClientIDBase)
	enc.Uint8(uint8(MsgReply))
	enc.NodeID(ClientIDBase)
	enc.Uvarint(1)
	if got := buf[len(enc.Bytes())]; got != 5 {
		t.Fatalf("StatusOverload encodes as %d, want 5", got)
	}
}
