package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Codec errors.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrOversize  = errors.New("wire: length field exceeds limit")
	ErrBadType   = errors.New("wire: unknown message type")
	ErrTrailing  = errors.New("wire: trailing bytes after message")
)

// MaxBlob bounds any single length-prefixed byte field, guarding decoders
// against corrupt or hostile length fields.
const MaxBlob = 64 << 20

// MaxSlice bounds any element count field.
const MaxSlice = 1 << 20

// Encoder appends primitive values to a byte buffer. The zero Encoder is
// ready to use; Bytes returns the accumulated encoding.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder writing into buf (may be nil). Passing a
// reused buffer with zero length avoids allocation in hot paths.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded bytes accumulated so far.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes accumulated so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the accumulated encoding but keeps the buffer capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uvarint appends v in unsigned LEB128 form.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Uint8 appends a single byte.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Uint32 appends v as a fixed 4-byte little-endian value.
func (e *Encoder) Uint32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// Uint64 appends v as a fixed 8-byte little-endian value.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Bool appends v as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint8(1)
	} else {
		e.Uint8(0)
	}
}

// Float64 appends v as its IEEE-754 bit pattern.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Bytes8 appends a length-prefixed byte string.
func (e *Encoder) Bytes8(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// NodeID appends a node identifier.
func (e *Encoder) NodeID(id NodeID) { e.Uvarint(uint64(id)) }

// Ballot appends a ballot number.
func (e *Encoder) Ballot(b Ballot) {
	e.Uvarint(b.Round)
	e.NodeID(b.Node)
}

// Decoder consumes primitive values from a byte buffer. Decoding methods
// record the first error and subsequently return zero values, so call
// sites can decode a whole struct and check Err once.
type Decoder struct {
	buf   []byte
	off   int
	err   error
	alias bool // Bytes8 aliases buf; ownership of buf moves to the result
}

// NewDecoder returns a Decoder reading from buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Done returns nil when the buffer was fully consumed without error.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uvarint consumes an unsigned LEB128 value.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.off += n
	return v
}

// Uint8 consumes one byte.
func (d *Decoder) Uint8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail(ErrTruncated)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Uint32 consumes a fixed 4-byte little-endian value.
func (d *Decoder) Uint32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.buf) {
		d.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// Uint64 consumes a fixed 8-byte little-endian value.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Bool consumes one byte as a boolean.
func (d *Decoder) Bool() bool { return d.Uint8() != 0 }

// Float64 consumes an IEEE-754 bit pattern.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Bytes8 consumes a length-prefixed byte string. With NewDecoder the
// result is a copy and remains valid after the source buffer is reused;
// in alias mode (DecodeEnvelopeOwned) it aliases the source buffer,
// capped at its own length so an append never clobbers a neighbour.
func (d *Decoder) Bytes8() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > MaxBlob {
		d.fail(ErrOversize)
		return nil
	}
	if d.off+int(n) > len(d.buf) {
		d.fail(ErrTruncated)
		return nil
	}
	if n == 0 {
		return nil
	}
	if d.alias {
		end := d.off + int(n)
		out := d.buf[d.off:end:end]
		d.off = end
		return out
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += int(n)
	return out
}

// String consumes a length-prefixed string.
func (d *Decoder) String() string {
	b := d.Bytes8()
	return string(b)
}

// SliceLen consumes an element count, bounds-checking it.
func (d *Decoder) SliceLen() int {
	n := d.Uvarint()
	if n > MaxSlice {
		d.fail(ErrOversize)
		return 0
	}
	return int(n)
}

// NodeID consumes a node identifier.
func (d *Decoder) NodeID() NodeID { return NodeID(d.Uvarint()) }

// Ballot consumes a ballot number.
func (d *Decoder) Ballot() Ballot {
	var b Ballot
	b.Round = d.Uvarint()
	b.Node = d.NodeID()
	return b
}

// EncodeEnvelope appends the full wire form of env — header plus message
// body — to buf and returns the extended slice. The layout is:
//
//	uvarint from | uvarint to | uint8 type | body...
//
// No MsgType has bit 0x80 set, so DecodeEnvelope refuses such a type
// byte with ErrBadType; it once flagged a consensus-group field.
//
// Framing (length prefixes for stream transports) is the transport's job.
//
// The Encoder itself is pooled: it escapes through the MarshalTo
// interface call, so without pooling every encoded envelope would pay
// one Encoder allocation. With a pooled or pre-sized buf the whole
// encode is allocation-free.
func EncodeEnvelope(buf []byte, env *Envelope) []byte {
	enc := encPool.Get().(*Encoder)
	enc.buf = buf
	enc.NodeID(env.From)
	enc.NodeID(env.To)
	enc.Uint8(uint8(env.Msg.Type()))
	env.Msg.MarshalTo(enc)
	out := enc.buf
	enc.buf = nil // drop the reference before pooling
	encPool.Put(enc)
	return out
}

var encPool = sync.Pool{New: func() any { return new(Encoder) }}

// DecodeEnvelope parses one envelope from buf, which must contain exactly
// one encoded envelope. Byte fields are copied out of buf, so the caller
// may reuse buf immediately.
func DecodeEnvelope(buf []byte) (*Envelope, error) {
	return decodeEnvelopePooled(buf, false)
}

// DecodeEnvelopeOwned parses one envelope from buf without copying byte
// fields: Op, Result, and State slices in the returned message alias buf
// directly. Ownership of buf transfers to the envelope — the caller must
// not modify, reuse, or pool buf after a successful return. Use this on
// receive paths that hand each frame its own buffer; use DecodeEnvelope
// when the buffer is reused.
func DecodeEnvelopeOwned(buf []byte) (*Envelope, error) {
	return decodeEnvelopePooled(buf, true)
}

// decPool recycles Decoder structs: passing a decoder through the
// Message.UnmarshalFrom interface makes it escape, so without pooling
// every decoded envelope pays one Decoder allocation.
var decPool = sync.Pool{New: func() any { return new(Decoder) }}

func decodeEnvelopePooled(buf []byte, alias bool) (*Envelope, error) {
	dec := decPool.Get().(*Decoder)
	*dec = Decoder{buf: buf, alias: alias}
	env, err := decodeEnvelope(dec)
	*dec = Decoder{} // drop the buf reference before pooling
	decPool.Put(dec)
	return env, err
}

func decodeEnvelope(dec *Decoder) (*Envelope, error) {
	from := dec.NodeID()
	to := dec.NodeID()
	t := MsgType(dec.Uint8())
	if err := dec.Err(); err != nil {
		return nil, err
	}
	env := newEnvelopeFor(t)
	if env == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadType, t)
	}
	env.From, env.To = from, to
	if err := env.Msg.UnmarshalFrom(dec); err != nil {
		return nil, err
	}
	if err := dec.Done(); err != nil {
		return nil, err
	}
	return env, nil
}

// newEnvelopeFor returns an envelope whose Msg is a zero message of the
// given type, or nil if the type is unknown. Envelope and message come
// from a single allocation — they have identical lifetimes, and fusing
// them halves the fixed per-decode allocation cost.
func newEnvelopeFor(t MsgType) *Envelope {
	switch t {
	case MsgRequest:
		x := new(struct {
			e Envelope
			m RequestMsg
		})
		x.e.Msg = &x.m
		return &x.e
	case MsgReply:
		x := new(struct {
			e Envelope
			m ReplyMsg
		})
		x.e.Msg = &x.m
		return &x.e
	case MsgPrepare:
		x := new(struct {
			e Envelope
			m Prepare
		})
		x.e.Msg = &x.m
		return &x.e
	case MsgPromise:
		x := new(struct {
			e Envelope
			m Promise
		})
		x.e.Msg = &x.m
		return &x.e
	case MsgAccept:
		x := new(struct {
			e Envelope
			m Accept
		})
		x.e.Msg = &x.m
		return &x.e
	case MsgAccepted:
		x := new(struct {
			e Envelope
			m Accepted
		})
		x.e.Msg = &x.m
		return &x.e
	case MsgCommit:
		x := new(struct {
			e Envelope
			m Commit
		})
		x.e.Msg = &x.m
		return &x.e
	case MsgConfirm:
		x := new(struct {
			e Envelope
			m Confirm
		})
		x.e.Msg = &x.m
		return &x.e
	case MsgHeartbeat:
		x := new(struct {
			e Envelope
			m Heartbeat
		})
		x.e.Msg = &x.m
		return &x.e
	case MsgCatchUpReq:
		x := new(struct {
			e Envelope
			m CatchUpReq
		})
		x.e.Msg = &x.m
		return &x.e
	case MsgCatchUpResp:
		x := new(struct {
			e Envelope
			m CatchUpResp
		})
		x.e.Msg = &x.m
		return &x.e
	case MsgJoinReq:
		x := new(struct {
			e Envelope
			m JoinReq
		})
		x.e.Msg = &x.m
		return &x.e
	case MsgSnapReq:
		x := new(struct {
			e Envelope
			m SnapReq
		})
		x.e.Msg = &x.m
		return &x.e
	case MsgSnapChunk:
		x := new(struct {
			e Envelope
			m SnapChunk
		})
		x.e.Msg = &x.m
		return &x.e
	default:
		return nil
	}
}
