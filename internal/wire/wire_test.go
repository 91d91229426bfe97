package wire

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestMsgTypeString names every message type, one row each, and falls
// back to the number for a type outside the protocol.
func TestMsgTypeString(t *testing.T) {
	names := map[MsgType]string{
		MsgInvalid:     "msgtype(0)",
		MsgRequest:     "request",
		MsgReply:       "reply",
		MsgPrepare:     "prepare",
		MsgPromise:     "promise",
		MsgAccept:      "accept",
		MsgAccepted:    "accepted",
		MsgCommit:      "commit",
		MsgConfirm:     "confirm",
		MsgHeartbeat:   "heartbeat",
		MsgCatchUpReq:  "catchup-req",
		MsgCatchUpResp: "catchup-resp",
		MsgJoinReq:     "join-req",
		MsgSnapReq:     "snap-req",
		MsgSnapChunk:   "snap-chunk",
		numMsgTypes:    "msgtype(15)",
	}
	for typ := MsgInvalid; typ <= numMsgTypes; typ++ {
		want, ok := names[typ]
		if !ok {
			t.Fatalf("message type %d has no row", typ)
		}
		if got := typ.String(); got != want {
			t.Errorf("MsgType(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func TestBallotOrder(t *testing.T) {
	cases := []struct {
		a, b Ballot
		less bool
	}{
		{Ballot{1, 0}, Ballot{2, 0}, true},
		{Ballot{2, 0}, Ballot{1, 0}, false},
		{Ballot{1, 1}, Ballot{1, 2}, true},
		{Ballot{1, 2}, Ballot{1, 1}, false},
		{Ballot{1, 1}, Ballot{1, 1}, false},
		{Ballot{0, 0}, Ballot{1, 0}, true},
		{Ballot{3, 7}, Ballot{4, 0}, true},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

func TestBallotLessIsStrictTotalOrder(t *testing.T) {
	f := func(ar, br uint64, an, bn uint32) bool {
		a := Ballot{ar, NodeID(an)}
		b := Ballot{br, NodeID(bn)}
		// Trichotomy: exactly one of a<b, b<a, a==b.
		n := 0
		if a.Less(b) {
			n++
		}
		if b.Less(a) {
			n++
		}
		if a.Equal(b) {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProposalNumOrder(t *testing.T) {
	// §3.3: proposal numbers are ordered lexicographically, first by
	// ballot and then by instance.
	a := ProposalNum{Bal: Ballot{1, 0}, Instance: 99}
	b := ProposalNum{Bal: Ballot{2, 0}, Instance: 1}
	if !a.Less(b) {
		t.Errorf("ballot must dominate instance in proposal-number order")
	}
	c := ProposalNum{Bal: Ballot{2, 0}, Instance: 2}
	if !b.Less(c) {
		t.Errorf("equal ballots must order by instance")
	}
	if c.Less(b) {
		t.Errorf("order must be antisymmetric")
	}
}

func TestZeroBallot(t *testing.T) {
	var z Ballot
	if !z.IsZero() {
		t.Fatal("zero ballot must report IsZero")
	}
	if !z.Less(Ballot{1, 0}) {
		t.Fatal("zero ballot must order below issued ballots")
	}
	if (Ballot{1, 0}).IsZero() {
		t.Fatal("issued ballot must not report IsZero")
	}
}

func TestNodeIDSpaces(t *testing.T) {
	if NodeID(0).IsClient() || NodeID(100).IsClient() {
		t.Error("replica IDs must not be client IDs")
	}
	if !ClientIDBase.IsClient() || !(ClientIDBase + 7).IsClient() {
		t.Error("IDs at/above ClientIDBase must be client IDs")
	}
	if got := NodeID(3).String(); got != "r3" {
		t.Errorf("replica NodeID string = %q, want r3", got)
	}
	if got := (ClientIDBase + 2).String(); got != "c2" {
		t.Errorf("client NodeID string = %q, want c2", got)
	}
}

func TestRequestKindMutates(t *testing.T) {
	mutating := map[RequestKind]bool{
		KindWrite:     true,
		KindRead:      false,
		KindOriginal:  false,
		KindTxnOp:     true,
		KindTxnCommit: true,
		KindTxnAbort:  true,
	}
	for k, want := range mutating {
		if got := k.Mutates(); got != want {
			t.Errorf("%v.Mutates() = %v, want %v", k, got, want)
		}
	}
}

// roundTrip encodes env and decodes it back, failing the test on error.
func roundTrip(t *testing.T, env *Envelope) *Envelope {
	t.Helper()
	buf := EncodeEnvelope(nil, env)
	got, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatalf("DecodeEnvelope(%v): %v", env.Msg.Type(), err)
	}
	if got.From != env.From || got.To != env.To {
		t.Fatalf("header mismatch: got %v->%v want %v->%v", got.From, got.To, env.From, env.To)
	}
	if got.Msg.Type() != env.Msg.Type() {
		t.Fatalf("type mismatch: got %v want %v", got.Msg.Type(), env.Msg.Type())
	}
	return got
}

func sampleEntry() Entry {
	return Entry{
		Instance: 42,
		Bal:      Ballot{3, 1},
		Prop: Proposal{
			Reqs: []Request{
				{Client: ClientIDBase + 1, Seq: 9, Kind: KindWrite, Op: []byte("put x 1")},
				{Client: ClientIDBase + 2, Seq: 3, Kind: KindTxnOp, Txn: 77, Op: []byte("get y")},
			},
			State:    []byte{1, 2, 3, 4},
			HasState: true,
			Results:  [][]byte{[]byte("ok"), nil},
		},
	}
}

func TestRoundTripAllMessages(t *testing.T) {
	msgs := []Message{
		&RequestMsg{Req: Request{Client: ClientIDBase, Seq: 1, Kind: KindRead, Op: []byte("get k")}},
		&RequestMsg{Req: Request{Client: ClientIDBase + 5, Seq: 0, Kind: KindTxnAbort, Txn: 12}},
		&ReplyMsg{Rep: Reply{Client: ClientIDBase, Seq: 1, Status: StatusOK, Leader: 0, Result: []byte("v")}},
		&ReplyMsg{Rep: Reply{Client: ClientIDBase, Seq: 2, Status: StatusAborted, Err: "leader switch"}},
		&Prepare{Bal: Ballot{5, 2}, After: 90, Gaps: []uint64{88, 89}},
		&Prepare{Bal: Ballot{1, 0}},
		&Promise{Bal: Ballot{5, 2}, From: 1, OK: true, Entries: []Entry{sampleEntry()}, Chosen: 87},
		&Promise{Bal: Ballot{5, 2}, From: 1, OK: false, MaxProm: Ballot{6, 0}},
		&Accept{Bal: Ballot{5, 2}, Entries: []Entry{sampleEntry()}, Commit: 41},
		&Accepted{Bal: Ballot{5, 2}, From: 2, OK: true, Instances: []uint64{88, 89, 91}},
		&Accepted{Bal: Ballot{5, 2}, From: 2, OK: false, MaxProm: Ballot{9, 1}},
		&Commit{Bal: Ballot{5, 2}, Index: 91},
		&Confirm{Bal: Ballot{5, 2}, From: 1, Reads: []Key{{ClientIDBase + 3, 17}}},
		&Confirm{Bal: Ballot{5, 2}, From: 1, Reads: []Key{
			{ClientIDBase + 3, 17}, {ClientIDBase + 4, 2}, {ClientIDBase + 9, 1}}},
		&Confirm{Bal: Ballot{5, 2}, From: 1},
		&Confirm{Bal: Ballot{5, 2}, From: 1, Reads: []Key{{ClientIDBase + 3, 17}}, MaxAcc: 91, MaxAccSet: true},
		&Confirm{Bal: Ballot{5, 2}, From: 1, MaxAccSet: true}, // stamped barrier 0 stays stamped
		&Heartbeat{From: 0, Epoch: 123, Leader: 0},
		&Heartbeat{From: 2, Epoch: 7, Leader: 2, Chosen: 40, Applied: 40, Cost: 42},
		&CatchUpReq{From: 2, HaveChosen: 80},
		&CatchUpResp{From: 0, Entries: []Entry{sampleEntry()}, Chosen: 91},
		&Heartbeat{From: 1, Epoch: 124, Leader: 0, Chosen: 91, Applied: 88},
		&JoinReq{From: 3, Addr: "127.0.0.1:9003", Applied: 12},
		&JoinReq{From: 4},
		&SnapReq{From: 3, SnapAt: 90, Offset: 65536},
		&SnapChunk{From: 0, SnapAt: 90, Total: 100, Offset: 64,
			Data: []byte("chunk-bytes"), Sum: 0xdeadbeef,
			Members: []NodeID{0, 1, 2}, Learners: []NodeID{3}},
		&SnapChunk{From: 0, SnapAt: 90, Total: 0, Sum: 1},
	}
	for _, m := range msgs {
		env := &Envelope{From: 0, To: 1, Msg: m}
		got := roundTrip(t, env)
		// Re-encode the decoded message; byte-for-byte equality is a
		// strong structural equality check without reflection.
		a := EncodeEnvelope(nil, env)
		b := EncodeEnvelope(nil, got)
		if string(a) != string(b) {
			t.Errorf("%v: re-encoded bytes differ\n a=%x\n b=%x", m.Type(), a, b)
		}
	}
}

func TestRoundTripEntryFields(t *testing.T) {
	e := sampleEntry()
	env := &Envelope{From: 0, To: 2, Msg: &Accept{Bal: Ballot{3, 1}, Entries: []Entry{e}}}
	got := roundTrip(t, env).Msg.(*Accept)
	if len(got.Entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(got.Entries))
	}
	ge := got.Entries[0]
	if ge.Instance != e.Instance || !ge.Bal.Equal(e.Bal) {
		t.Errorf("entry header mismatch: %+v", ge)
	}
	if len(ge.Prop.Reqs) != 2 {
		t.Fatalf("reqs = %d, want 2", len(ge.Prop.Reqs))
	}
	r := ge.Prop.Reqs[1]
	if r.Txn != 77 || r.Kind != KindTxnOp || string(r.Op) != "get y" {
		t.Errorf("request fields lost: %+v", r)
	}
	if !ge.Prop.HasState || string(ge.Prop.State) != string(e.Prop.State) {
		t.Errorf("state lost: %+v", ge.Prop)
	}
	if len(ge.Prop.Results) != 2 || string(ge.Prop.Results[0]) != "ok" {
		t.Errorf("results lost: %+v", ge.Prop.Results)
	}
}

func TestProposalWithoutState(t *testing.T) {
	e := sampleEntry()
	e.Prop.HasState = false
	e.Prop.State = nil
	env := &Envelope{From: 0, To: 1, Msg: &Accept{Bal: e.Bal, Entries: []Entry{e}}}
	got := roundTrip(t, env).Msg.(*Accept)
	if got.Entries[0].Prop.HasState || got.Entries[0].Prop.State != nil {
		t.Errorf("state should be absent: %+v", got.Entries[0].Prop)
	}
}

func TestDecodeErrors(t *testing.T) {
	// Truncated at every prefix length must error, never panic.
	env := &Envelope{From: 0, To: 1, Msg: &Promise{
		Bal: Ballot{5, 2}, From: 1, OK: true, Entries: []Entry{sampleEntry()}, Chosen: 87,
	}}
	buf := EncodeEnvelope(nil, env)
	for i := 0; i < len(buf); i++ {
		if _, err := DecodeEnvelope(buf[:i]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", i, len(buf))
		}
	}
	// Trailing garbage must error.
	if _, err := DecodeEnvelope(append(append([]byte{}, buf...), 0xff)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
	// Unknown message type must error.
	bad := EncodeEnvelope(nil, env)
	// from=0 (1 byte) to=1 (1 byte) type at offset 2.
	bad[2] = 0xEE
	if _, err := DecodeEnvelope(bad); err == nil {
		t.Fatal("unknown type decoded without error")
	}
	// Invalid request kind must error.
	reqEnv := &Envelope{From: ClientIDBase, To: 0, Msg: &RequestMsg{Req: Request{Kind: KindWrite}}}
	rb := EncodeEnvelope(nil, reqEnv)
	// Find the kind byte: header is from(varint, 3 bytes for 1<<16), to(1), type(1),
	// then client(3), seq(1), kind(1). Easier: flip a byte and just check
	// for error-or-valid, so instead encode directly.
	_ = rb
	enc := NewEncoder(nil)
	enc.NodeID(ClientIDBase)
	enc.NodeID(0)
	enc.Uint8(uint8(MsgRequest))
	enc.NodeID(ClientIDBase)
	enc.Uvarint(1)
	enc.Uint8(200) // invalid kind
	enc.Uvarint(0)
	enc.Uvarint(0)
	enc.Bytes8(nil)
	if _, err := DecodeEnvelope(enc.Bytes()); err == nil {
		t.Fatal("invalid request kind decoded without error")
	}
}

func TestOversizeFieldsRejected(t *testing.T) {
	enc := NewEncoder(nil)
	enc.NodeID(0)
	enc.NodeID(1)
	enc.Uint8(uint8(MsgCatchUpResp))
	enc.NodeID(0)
	enc.Uvarint(MaxSlice + 1) // absurd entry count
	if _, err := DecodeEnvelope(enc.Bytes()); err == nil {
		t.Fatal("oversize slice count decoded without error")
	}

	enc.Reset()
	enc.NodeID(0)
	enc.NodeID(1)
	enc.Uint8(uint8(MsgReply))
	enc.NodeID(ClientIDBase)
	enc.Uvarint(1)
	enc.Uint8(uint8(StatusOK))
	enc.NodeID(0)
	enc.Uvarint(MaxBlob + 1) // absurd blob length
	if _, err := DecodeEnvelope(enc.Bytes()); err == nil {
		t.Fatal("oversize blob length decoded without error")
	}
}

func TestEncoderPrimitivesRoundTrip(t *testing.T) {
	f := func(u64 uint64, u32 uint32, u8 uint8, b bool, f64 float64, blob []byte, s string) bool {
		enc := NewEncoder(nil)
		enc.Uvarint(u64)
		enc.Uint32(u32)
		enc.Uint8(u8)
		enc.Bool(b)
		enc.Float64(f64)
		enc.Bytes8(blob)
		enc.String(s)
		dec := NewDecoder(enc.Bytes())
		if dec.Uvarint() != u64 || dec.Uint32() != u32 || dec.Uint8() != u8 || dec.Bool() != b {
			return false
		}
		g := dec.Float64()
		if g != f64 && !(g != g && f64 != f64) { // NaN-tolerant compare
			return false
		}
		gb := dec.Bytes8()
		if string(gb) != string(blob) {
			return false
		}
		if dec.String() != s {
			return false
		}
		return dec.Done() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		req := Request{
			Client: ClientIDBase + NodeID(rng.Intn(1000)),
			Seq:    rng.Uint64(),
			Kind:   RequestKind(rng.Intn(int(numRequestKinds))),
			Txn:    rng.Uint64() % 100,
			TxnSeq: rng.Uint32() % 8,
			Op:     randBytes(rng, rng.Intn(64)),
		}
		env := &Envelope{From: req.Client, To: 0, Msg: &RequestMsg{Req: req}}
		got := roundTrip(t, env).Msg.(*RequestMsg).Req
		if got.Client != req.Client || got.Seq != req.Seq || got.Kind != req.Kind ||
			got.Txn != req.Txn || got.TxnSeq != req.TxnSeq || string(got.Op) != string(req.Op) {
			t.Fatalf("iteration %d: got %+v want %+v", i, got, req)
		}
	}
}

func TestDecoderBytesAreCopies(t *testing.T) {
	enc := NewEncoder(nil)
	enc.Bytes8([]byte("hello"))
	buf := enc.Bytes()
	dec := NewDecoder(buf)
	got := dec.Bytes8()
	buf[len(buf)-1] = 'X' // mutate source
	if string(got) != "hello" {
		t.Fatalf("decoded bytes alias the source buffer: %q", got)
	}
}

func TestEncoderReuse(t *testing.T) {
	enc := NewEncoder(make([]byte, 0, 64))
	enc.Uvarint(7)
	first := enc.Len()
	enc.Reset()
	if enc.Len() != 0 {
		t.Fatal("Reset did not clear length")
	}
	enc.Uvarint(7)
	if enc.Len() != first {
		t.Fatal("re-encoding after Reset changed length")
	}
}

func TestRequestKeyIdentity(t *testing.T) {
	a := Request{Client: ClientIDBase + 1, Seq: 5}
	b := Request{Client: ClientIDBase + 1, Seq: 5, Kind: KindRead}
	c := Request{Client: ClientIDBase + 2, Seq: 5}
	if a.Key() != b.Key() {
		t.Error("keys must depend only on client+seq")
	}
	if a.Key() == c.Key() {
		t.Error("different clients must have different keys")
	}
}

func TestNewCoversAllTypes(t *testing.T) {
	for ty := MsgType(1); ty < numMsgTypes; ty++ {
		m := New(ty)
		if m == nil {
			t.Fatalf("New(%v) = nil", ty)
		}
		if m.Type() != ty {
			t.Fatalf("New(%v).Type() = %v", ty, m.Type())
		}
	}
	if New(MsgInvalid) != nil || New(numMsgTypes) != nil {
		t.Fatal("New must reject invalid types")
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestProposalDeltaAndAuxRoundTrip(t *testing.T) {
	e := Entry{
		Instance: 7,
		Bal:      Ballot{2, 1},
		Prop: Proposal{
			Reqs:     []Request{{Client: ClientIDBase, Seq: 1, Kind: KindWrite, Op: []byte("op")}},
			State:    []byte("delta-bytes"),
			HasState: true,
			Kind:     StateDelta,
			Aux:      [][]byte{[]byte("choice")},
			Results:  [][]byte{[]byte("r")},
		},
	}
	env := &Envelope{From: 0, To: 1, Msg: &Accept{Bal: e.Bal, Entries: []Entry{e}}}
	got := roundTrip(t, env).Msg.(*Accept).Entries[0]
	if got.Prop.Kind != StateDelta || string(got.Prop.State) != "delta-bytes" {
		t.Fatalf("delta lost: %+v", got.Prop)
	}
	if len(got.Prop.Aux) != 1 || string(got.Prop.Aux[0]) != "choice" {
		t.Fatalf("aux lost: %+v", got.Prop.Aux)
	}
}

func TestProposalNilAuxElementPreserved(t *testing.T) {
	// A deterministic op in replay mode has aux = nil, but the slice
	// length must match Reqs so the receiver can pair them.
	e := Entry{Instance: 1, Prop: Proposal{
		Reqs: []Request{{Client: ClientIDBase, Seq: 1, Kind: KindWrite}},
		Aux:  [][]byte{nil},
	}}
	env := &Envelope{From: 0, To: 1, Msg: &Accept{Entries: []Entry{e}}}
	got := roundTrip(t, env).Msg.(*Accept).Entries[0]
	if len(got.Prop.Aux) != 1 || len(got.Prop.Aux[0]) != 0 {
		t.Fatalf("nil aux element not preserved: %+v", got.Prop.Aux)
	}
}

func TestConfigProposalRoundTrip(t *testing.T) {
	e := Entry{Instance: 7, Bal: Ballot{3, 0}, Prop: Proposal{
		ConfigOp:   ConfigAddVoter,
		ConfigNode: 3,
		ConfigAddr: "127.0.0.1:9003",
	}}
	env := &Envelope{From: 0, To: 1, Msg: &Accept{Bal: Ballot{3, 0}, Entries: []Entry{e}}}
	got := roundTrip(t, env).Msg.(*Accept).Entries[0]
	if !got.Prop.IsConfig() || got.Prop.ConfigOp != ConfigAddVoter ||
		got.Prop.ConfigNode != 3 || got.Prop.ConfigAddr != "127.0.0.1:9003" {
		t.Fatalf("config entry lost: %+v", got.Prop)
	}
}

func TestCatchUpRespSnapshotRoundTrip(t *testing.T) {
	env := &Envelope{From: 1, To: 2, Msg: &CatchUpResp{
		From:    1,
		Entries: []Entry{sampleEntry()},
		Chosen:  42,
		State:   []byte("full-snapshot"),
		StateAt: 42,
	}}
	got := roundTrip(t, env).Msg.(*CatchUpResp)
	if string(got.State) != "full-snapshot" || got.StateAt != 42 || got.Chosen != 42 {
		t.Fatalf("catch-up snapshot lost: %+v", got)
	}
}

func TestHeartbeatChosenRoundTrip(t *testing.T) {
	env := &Envelope{From: 0, To: 1, Msg: &Heartbeat{From: 0, Epoch: 3, Leader: 0, Chosen: 99}}
	got := roundTrip(t, env).Msg.(*Heartbeat)
	if got.Chosen != 99 || got.Epoch != 3 {
		t.Fatalf("heartbeat fields lost: %+v", got)
	}
}

func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	// The decoder must reject arbitrary garbage gracefully — corrupt
	// peers and bit flips yield errors, never panics.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(200)
		buf := make([]byte, n)
		rng.Read(buf)
		if env, err := DecodeEnvelope(buf); err == nil {
			// Valid by chance: re-encoding must round-trip.
			re := EncodeEnvelope(nil, env)
			if _, err := DecodeEnvelope(re); err != nil {
				t.Fatalf("re-decode of accepted garbage failed: %v", err)
			}
		}
	}
}

func TestDecodeMutatedValidMessages(t *testing.T) {
	// Flip every single byte of a valid encoding: each mutation must
	// either decode cleanly or error — no panics, no hangs.
	env := &Envelope{From: 0, To: 1, Msg: &Accept{
		Bal: Ballot{3, 1}, Entries: []Entry{sampleEntry()}, Commit: 41,
	}}
	buf := EncodeEnvelope(nil, env)
	for pos := 0; pos < len(buf); pos++ {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte{}, buf...)
			mut[pos] ^= flip
			_, _ = DecodeEnvelope(mut)
		}
	}
}
