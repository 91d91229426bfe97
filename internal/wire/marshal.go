package wire

import "fmt"

// This file implements MarshalTo/UnmarshalFrom for every protocol message.
// Encodings are versionless and positional; the envelope type byte selects
// the decoder. Every slice is bounds-checked through Decoder.SliceLen and
// every blob through Decoder.Bytes8.

// nearFlag marks a request whose kind byte is followed by a Near target
// (nearest-replica reads, DESIGN.md §16). It keeps requests without the
// extension byte-for-byte the original encoding.
const nearFlag = 0x80

func marshalRequest(enc *Encoder, r *Request) {
	enc.NodeID(r.Client)
	enc.Uvarint(r.Seq)
	k := uint8(r.Kind)
	if r.NearSet {
		k |= nearFlag
	}
	enc.Uint8(k)
	if r.NearSet {
		enc.NodeID(r.Near)
	}
	enc.Uvarint(r.Txn)
	enc.Uvarint(uint64(r.TxnSeq))
	enc.Bytes8(r.Op)
}

func unmarshalRequest(dec *Decoder, r *Request) error {
	r.Client = dec.NodeID()
	r.Seq = dec.Uvarint()
	k := dec.Uint8()
	r.NearSet = k&nearFlag != 0
	k &^= nearFlag
	if k >= uint8(numRequestKinds) && dec.Err() == nil {
		return fmt.Errorf("wire: invalid request kind %d", k)
	}
	r.Kind = RequestKind(k)
	if r.NearSet {
		r.Near = dec.NodeID()
	} else {
		r.Near = 0
	}
	r.Txn = dec.Uvarint()
	r.TxnSeq = uint32(dec.Uvarint())
	r.Op = dec.Bytes8()
	return dec.Err()
}

func marshalProposal(enc *Encoder, p *Proposal) {
	enc.Uvarint(uint64(len(p.Reqs)))
	for i := range p.Reqs {
		marshalRequest(enc, &p.Reqs[i])
	}
	enc.Bool(p.HasState)
	if p.HasState {
		enc.Uint8(uint8(p.Kind))
		enc.Bytes8(p.State)
	}
	enc.Uvarint(uint64(len(p.Aux)))
	for _, aux := range p.Aux {
		enc.Bytes8(aux)
	}
	enc.Uvarint(uint64(len(p.Results)))
	for _, res := range p.Results {
		enc.Bytes8(res)
	}
	enc.Uint8(uint8(p.ConfigOp))
	if p.ConfigOp != ConfigNone {
		enc.NodeID(p.ConfigNode)
		enc.String(p.ConfigAddr)
	}
}

func unmarshalProposal(dec *Decoder, p *Proposal) error {
	n := dec.SliceLen()
	if dec.Err() != nil {
		return dec.Err()
	}
	p.Reqs = make([]Request, n)
	for i := range p.Reqs {
		if err := unmarshalRequest(dec, &p.Reqs[i]); err != nil {
			return err
		}
	}
	p.HasState = dec.Bool()
	if p.HasState {
		p.Kind = StateKind(dec.Uint8())
		p.State = dec.Bytes8()
	} else {
		p.Kind = StateFull
		p.State = nil
	}
	na := dec.SliceLen()
	if dec.Err() != nil {
		return dec.Err()
	}
	if na > 0 {
		p.Aux = make([][]byte, na)
		for i := range p.Aux {
			p.Aux[i] = dec.Bytes8()
		}
	} else {
		p.Aux = nil
	}
	m := dec.SliceLen()
	if dec.Err() != nil {
		return dec.Err()
	}
	if m > 0 {
		p.Results = make([][]byte, m)
		for i := range p.Results {
			p.Results[i] = dec.Bytes8()
		}
	} else {
		p.Results = nil
	}
	op := dec.Uint8()
	if op >= uint8(numConfigOps) && dec.Err() == nil {
		return fmt.Errorf("wire: invalid config op %d", op)
	}
	p.ConfigOp = ConfigOp(op)
	if p.ConfigOp != ConfigNone {
		p.ConfigNode = dec.NodeID()
		p.ConfigAddr = dec.String()
	} else {
		p.ConfigNode = 0
		p.ConfigAddr = ""
	}
	return dec.Err()
}

func marshalEntry(enc *Encoder, e *Entry) {
	enc.Uvarint(e.Instance)
	enc.Ballot(e.Bal)
	marshalProposal(enc, &e.Prop)
}

func unmarshalEntry(dec *Decoder, e *Entry) error {
	e.Instance = dec.Uvarint()
	e.Bal = dec.Ballot()
	return unmarshalProposal(dec, &e.Prop)
}

func marshalEntries(enc *Encoder, es []Entry) {
	enc.Uvarint(uint64(len(es)))
	for i := range es {
		marshalEntry(enc, &es[i])
	}
}

func unmarshalEntries(dec *Decoder) ([]Entry, error) {
	n := dec.SliceLen()
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	if n == 0 {
		return nil, nil
	}
	es := make([]Entry, n)
	for i := range es {
		if err := unmarshalEntry(dec, &es[i]); err != nil {
			return nil, err
		}
	}
	return es, nil
}

func marshalUint64s(enc *Encoder, vs []uint64) {
	enc.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		enc.Uvarint(v)
	}
}

func unmarshalUint64s(dec *Decoder) []uint64 {
	n := dec.SliceLen()
	if dec.Err() != nil || n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = dec.Uvarint()
	}
	return vs
}

// MarshalTo implements Message.
func (m *RequestMsg) MarshalTo(enc *Encoder) { marshalRequest(enc, &m.Req) }

// UnmarshalFrom implements Message.
func (m *RequestMsg) UnmarshalFrom(dec *Decoder) error { return unmarshalRequest(dec, &m.Req) }

// MarshalTo implements Message.
func (m *ReplyMsg) MarshalTo(enc *Encoder) {
	r := &m.Rep
	enc.NodeID(r.Client)
	enc.Uvarint(r.Seq)
	enc.Uint8(uint8(r.Status))
	enc.NodeID(r.Leader)
	enc.Bytes8(r.Result)
	enc.String(r.Err)
	if r.Status == StatusOverload {
		// Status-gated field: legacy replies encode byte-for-byte as
		// before, and only gateway sheds pay for the hint.
		enc.Uvarint(uint64(r.RetryAfterMS))
	}
}

// UnmarshalFrom implements Message.
func (m *ReplyMsg) UnmarshalFrom(dec *Decoder) error {
	r := &m.Rep
	r.Client = dec.NodeID()
	r.Seq = dec.Uvarint()
	r.Status = ReplyStatus(dec.Uint8())
	r.Leader = dec.NodeID()
	r.Result = dec.Bytes8()
	r.Err = dec.String()
	if r.Status == StatusOverload {
		r.RetryAfterMS = uint32(dec.Uvarint())
	}
	return dec.Err()
}

// MarshalTo implements Message.
func (m *Prepare) MarshalTo(enc *Encoder) {
	enc.Ballot(m.Bal)
	enc.Uvarint(m.After)
	marshalUint64s(enc, m.Gaps)
}

// UnmarshalFrom implements Message.
func (m *Prepare) UnmarshalFrom(dec *Decoder) error {
	m.Bal = dec.Ballot()
	m.After = dec.Uvarint()
	m.Gaps = unmarshalUint64s(dec)
	return dec.Err()
}

// MarshalTo implements Message.
func (m *Promise) MarshalTo(enc *Encoder) {
	enc.Ballot(m.Bal)
	enc.NodeID(m.From)
	enc.Bool(m.OK)
	enc.Ballot(m.MaxProm)
	marshalEntries(enc, m.Entries)
	enc.Uvarint(m.Chosen)
}

// UnmarshalFrom implements Message.
func (m *Promise) UnmarshalFrom(dec *Decoder) error {
	m.Bal = dec.Ballot()
	m.From = dec.NodeID()
	m.OK = dec.Bool()
	m.MaxProm = dec.Ballot()
	var err error
	if m.Entries, err = unmarshalEntries(dec); err != nil {
		return err
	}
	m.Chosen = dec.Uvarint()
	return dec.Err()
}

// MarshalTo implements Message.
func (m *Accept) MarshalTo(enc *Encoder) {
	enc.Ballot(m.Bal)
	marshalEntries(enc, m.Entries)
	enc.Uvarint(m.Commit)
}

// UnmarshalFrom implements Message.
func (m *Accept) UnmarshalFrom(dec *Decoder) error {
	m.Bal = dec.Ballot()
	var err error
	if m.Entries, err = unmarshalEntries(dec); err != nil {
		return err
	}
	m.Commit = dec.Uvarint()
	return dec.Err()
}

// MarshalTo implements Message.
func (m *Accepted) MarshalTo(enc *Encoder) {
	enc.Ballot(m.Bal)
	enc.NodeID(m.From)
	enc.Bool(m.OK)
	enc.Ballot(m.MaxProm)
	marshalUint64s(enc, m.Instances)
}

// UnmarshalFrom implements Message.
func (m *Accepted) UnmarshalFrom(dec *Decoder) error {
	m.Bal = dec.Ballot()
	m.From = dec.NodeID()
	m.OK = dec.Bool()
	m.MaxProm = dec.Ballot()
	m.Instances = unmarshalUint64s(dec)
	return dec.Err()
}

// MarshalTo implements Message.
func (m *Commit) MarshalTo(enc *Encoder) {
	enc.Ballot(m.Bal)
	enc.Uvarint(m.Index)
}

// UnmarshalFrom implements Message.
func (m *Commit) UnmarshalFrom(dec *Decoder) error {
	m.Bal = dec.Ballot()
	m.Index = dec.Uvarint()
	return dec.Err()
}

// MarshalTo implements Message. MaxAcc is a presence-gated trailing
// field (like Request's nearFlag, but keyed on position: the envelope
// holds exactly one message, so "bytes remain" is the presence bit):
// confirms without the stamp encode byte-for-byte as the pre-§16
// format. Current binaries always stamp; the unstamped form arrives only
// from old peers.
func (m *Confirm) MarshalTo(enc *Encoder) {
	enc.Ballot(m.Bal)
	enc.NodeID(m.From)
	enc.Uvarint(uint64(len(m.Reads)))
	for _, k := range m.Reads {
		enc.NodeID(k.Client)
		enc.Uvarint(k.Seq)
	}
	if m.MaxAccSet {
		enc.Uvarint(m.MaxAcc)
	}
}

// UnmarshalFrom implements Message. A confirm from a peer that does not
// stamp MaxAcc (a pre-§16 binary) decodes with
// MaxAccSet false — the receiver must not treat the absent barrier
// claim as "barrier zero".
func (m *Confirm) UnmarshalFrom(dec *Decoder) error {
	m.Bal = dec.Ballot()
	m.From = dec.NodeID()
	n := dec.SliceLen()
	if dec.Err() != nil {
		return dec.Err()
	}
	if n > 0 {
		m.Reads = make([]Key, n)
		for i := range m.Reads {
			m.Reads[i].Client = dec.NodeID()
			m.Reads[i].Seq = dec.Uvarint()
		}
	}
	if m.MaxAccSet = dec.Remaining() > 0 && dec.Err() == nil; m.MaxAccSet {
		m.MaxAcc = dec.Uvarint()
	} else {
		m.MaxAcc = 0
	}
	return dec.Err()
}

// MarshalTo implements Message. Cost is a presence-gated trailing
// field: zero means unknown/off (the pre-§16 meaning of "no cost") and
// is simply not encoded, so heartbeats from clusters not running RTT
// placement stay byte-for-byte the prior format and decode on
// pre-§16 peers.
func (m *Heartbeat) MarshalTo(enc *Encoder) {
	enc.NodeID(m.From)
	enc.Uvarint(m.Epoch)
	enc.NodeID(m.Leader)
	enc.Uvarint(m.Chosen)
	enc.Uvarint(m.Applied)
	if m.Cost != 0 {
		enc.Uvarint(uint64(m.Cost))
	}
}

// UnmarshalFrom implements Message. An absent trailing Cost decodes as
// 0 — exactly the unknown/off sentinel, so old-format heartbeats mean
// what they always meant.
func (m *Heartbeat) UnmarshalFrom(dec *Decoder) error {
	m.From = dec.NodeID()
	m.Epoch = dec.Uvarint()
	m.Leader = dec.NodeID()
	m.Chosen = dec.Uvarint()
	m.Applied = dec.Uvarint()
	if dec.Remaining() > 0 && dec.Err() == nil {
		m.Cost = uint32(dec.Uvarint())
	} else {
		m.Cost = 0
	}
	return dec.Err()
}

// MarshalTo implements Message.
func (m *CatchUpReq) MarshalTo(enc *Encoder) {
	enc.NodeID(m.From)
	enc.Uvarint(m.HaveChosen)
}

// UnmarshalFrom implements Message.
func (m *CatchUpReq) UnmarshalFrom(dec *Decoder) error {
	m.From = dec.NodeID()
	m.HaveChosen = dec.Uvarint()
	return dec.Err()
}

func marshalNodeIDs(enc *Encoder, ids []NodeID) {
	enc.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		enc.NodeID(id)
	}
}

func unmarshalNodeIDs(dec *Decoder) []NodeID {
	n := dec.SliceLen()
	if dec.Err() != nil || n == 0 {
		return nil
	}
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = dec.NodeID()
	}
	return ids
}

// MarshalTo implements Message.
func (m *JoinReq) MarshalTo(enc *Encoder) {
	enc.NodeID(m.From)
	enc.String(m.Addr)
	enc.Uvarint(m.Applied)
}

// UnmarshalFrom implements Message.
func (m *JoinReq) UnmarshalFrom(dec *Decoder) error {
	m.From = dec.NodeID()
	m.Addr = dec.String()
	m.Applied = dec.Uvarint()
	return dec.Err()
}

// MarshalTo implements Message.
func (m *SnapReq) MarshalTo(enc *Encoder) {
	enc.NodeID(m.From)
	enc.Uvarint(m.SnapAt)
	enc.Uvarint(m.Offset)
}

// UnmarshalFrom implements Message.
func (m *SnapReq) UnmarshalFrom(dec *Decoder) error {
	m.From = dec.NodeID()
	m.SnapAt = dec.Uvarint()
	m.Offset = dec.Uvarint()
	return dec.Err()
}

// MarshalTo implements Message.
func (m *SnapChunk) MarshalTo(enc *Encoder) {
	enc.NodeID(m.From)
	enc.Uvarint(m.SnapAt)
	enc.Uvarint(m.Total)
	enc.Uvarint(m.Offset)
	enc.Bytes8(m.Data)
	enc.Uint32(m.Sum)
	marshalNodeIDs(enc, m.Members)
	marshalNodeIDs(enc, m.Learners)
}

// UnmarshalFrom implements Message.
func (m *SnapChunk) UnmarshalFrom(dec *Decoder) error {
	m.From = dec.NodeID()
	m.SnapAt = dec.Uvarint()
	m.Total = dec.Uvarint()
	m.Offset = dec.Uvarint()
	m.Data = dec.Bytes8()
	m.Sum = dec.Uint32()
	m.Members = unmarshalNodeIDs(dec)
	m.Learners = unmarshalNodeIDs(dec)
	return dec.Err()
}

// MarshalTo implements Message.
func (m *CatchUpResp) MarshalTo(enc *Encoder) {
	enc.NodeID(m.From)
	marshalEntries(enc, m.Entries)
	enc.Uvarint(m.Chosen)
	enc.Bytes8(m.State)
	enc.Uvarint(m.StateAt)
}

// UnmarshalFrom implements Message.
func (m *CatchUpResp) UnmarshalFrom(dec *Decoder) error {
	m.From = dec.NodeID()
	var err error
	if m.Entries, err = unmarshalEntries(dec); err != nil {
		return err
	}
	m.Chosen = dec.Uvarint()
	m.State = dec.Bytes8()
	m.StateAt = dec.Uvarint()
	return dec.Err()
}
