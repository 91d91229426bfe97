// Package wire defines the message types exchanged between clients and
// service replicas, and a compact hand-rolled binary encoding for them.
//
// The protocol follows "Replicating Nondeterministic Services on Grid
// Environments" (HPDC 2006): the value decided by consensus instance i is a
// tuple <req, state> — the i-th executed request together with the leader's
// service state after executing it. All messages required by the basic
// protocol (§3.3), the X-Paxos read path (§3.4), the T-Paxos transaction
// path (§3.5), leader election heartbeats, and replica catch-up are defined
// here.
package wire

import "fmt"

// NodeID identifies a process. Service replicas use small dense IDs
// (0..n-1); clients use IDs at or above ClientIDBase so the two spaces
// never collide on the same transport network.
type NodeID uint32

// ClientIDBase is the first NodeID used for client processes.
const ClientIDBase NodeID = 1 << 16

// IsClient reports whether id belongs to the client ID space.
func (id NodeID) IsClient() bool { return id >= ClientIDBase }

func (id NodeID) String() string {
	if id.IsClient() {
		return fmt.Sprintf("c%d", uint32(id-ClientIDBase))
	}
	return fmt.Sprintf("r%d", uint32(id))
}

// Ballot is a Paxos ballot number. Ballots are totally ordered first by
// round and then by the proposing node, so two nodes can never issue equal
// ballots. The zero Ballot is smaller than every ballot issued by a leader.
type Ballot struct {
	Round uint64
	Node  NodeID
}

// Less reports whether b orders strictly before o.
func (b Ballot) Less(o Ballot) bool {
	if b.Round != o.Round {
		return b.Round < o.Round
	}
	return b.Node < o.Node
}

// Equal reports whether b and o are the same ballot.
func (b Ballot) Equal(o Ballot) bool { return b.Round == o.Round && b.Node == o.Node }

// IsZero reports whether b is the zero ballot (never issued).
func (b Ballot) IsZero() bool { return b.Round == 0 && b.Node == 0 }

func (b Ballot) String() string { return fmt.Sprintf("(%d.%s)", b.Round, b.Node) }

// ProposalNum is the proposal number of an accepted proposal: the ballot
// under which it was accepted paired with its instance number. Proposal
// numbers are ordered lexicographically, first by ballot and then by
// instance (§3.3).
type ProposalNum struct {
	Bal      Ballot
	Instance uint64
}

// Less reports whether p orders strictly before o.
func (p ProposalNum) Less(o ProposalNum) bool {
	if !p.Bal.Equal(o.Bal) {
		return p.Bal.Less(o.Bal)
	}
	return p.Instance < o.Instance
}

// RequestKind classifies a client request. The replica picks the
// coordination protocol from the kind: writes run the basic protocol,
// reads run X-Paxos, originals bypass coordination entirely (the paper's
// non-replicated baseline), and the Txn* kinds drive T-Paxos.
type RequestKind uint8

const (
	// KindWrite changes the service state; coordinated with the basic
	// protocol (one consensus instance deciding <req, state>).
	KindWrite RequestKind = iota
	// KindRead does not change service state; coordinated with X-Paxos
	// majority confirms.
	KindRead
	// KindOriginal is the unreplicated baseline: the leader executes and
	// replies immediately with no coordination.
	KindOriginal
	// KindTxnOp is a request inside an open transaction: the leader
	// executes it against the transaction workspace and replies
	// immediately (T-Paxos).
	KindTxnOp
	// KindTxnCommit commits an open transaction: one consensus instance
	// decides the whole transaction and the resulting state.
	KindTxnCommit
	// KindTxnAbort aborts an open transaction; the leader discards the
	// workspace.
	KindTxnAbort

	numRequestKinds
)

func (k RequestKind) String() string {
	switch k {
	case KindWrite:
		return "write"
	case KindRead:
		return "read"
	case KindOriginal:
		return "original"
	case KindTxnOp:
		return "txn-op"
	case KindTxnCommit:
		return "txn-commit"
	case KindTxnAbort:
		return "txn-abort"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Mutates reports whether a request of this kind can change service state.
func (k RequestKind) Mutates() bool { return k != KindRead && k != KindOriginal }

// Request is a client request. Clients broadcast every request to all
// service replicas so they need not know which replica is the current
// leader (§3.3); only the leader replies.
type Request struct {
	Client NodeID      // issuing client
	Seq    uint64      // client-local sequence number, for matching replies
	Kind   RequestKind // coordination class
	Txn    uint64      // transaction ID; 0 when not in a transaction
	TxnSeq uint32      // 0-based index of this op within its transaction
	Op     []byte      // service-specific operation payload
	// Near, when NearSet, names the replica that serves this X-Paxos
	// read in the leader's place (nearest-replica reads, DESIGN.md §16;
	// the read rule is §18). Every other replica sends its Confirm to
	// Near rather than to the leader; Near assembles a voter majority,
	// waits for its applied state to cover the quorum's highest accepted
	// instance, and executes the read locally. Encoded
	// as a flag bit on the kind byte, so requests without it are
	// byte-for-byte the pre-§16 format. Only meaningful for KindRead.
	Near    NodeID
	NearSet bool
}

// Key uniquely identifies a request for reply matching and deduplication.
type Key struct {
	Client NodeID
	Seq    uint64
}

// Key returns the request's identity.
func (r *Request) Key() Key { return Key{r.Client, r.Seq} }

// ReplyStatus describes the outcome of a request.
type ReplyStatus uint8

const (
	// StatusOK: the request executed; Result holds the service reply.
	StatusOK ReplyStatus = iota
	// StatusAborted: the enclosing transaction aborted (T-Paxos).
	StatusAborted
	// StatusNotLeader: the receiving replica is not the leader; the
	// client should wait for the leader's reply or retry.
	StatusNotLeader
	// StatusError: the service rejected the operation.
	StatusError
	// 4 is reserved: it was the refusal of a transaction spanning
	// consensus groups, which no replica sends any longer.
	_
	// StatusOverload: the gateway shed the request at the edge before it
	// reached a consensus group (DESIGN.md §15). Reply.RetryAfterMS
	// carries the typed backoff hint; the request was NOT executed and
	// retrying it with the same sequence number is safe.
	StatusOverload
)

func (s ReplyStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusAborted:
		return "aborted"
	case StatusNotLeader:
		return "not-leader"
	case StatusError:
		return "error"
	case StatusOverload:
		return "overload"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Reply is the leader's response to a client request.
type Reply struct {
	Client NodeID
	Seq    uint64
	Status ReplyStatus
	Leader NodeID // hint: the replying (or believed) leader
	Result []byte // service reply payload
	Err    string // diagnostic detail for StatusError / StatusAborted
	// RetryAfterMS is the gateway's typed backoff hint, present on the
	// wire only when Status == StatusOverload — like Request's Near
	// target (marshal.go), the extension costs zero bytes on every reply
	// the pre-gateway protocol can produce, keeping the PR 8 byte-for-byte
	// compatibility guarantee with the gateway disabled.
	RetryAfterMS uint32
}

// StateKind classifies a proposal's State payload. §3.3 describes two
// ways to shrink state transfer: replicas "may be able to exchange only
// the updated state" (StateDelta), or — when the nondeterministic
// operation "can be reproduced with the client request and some
// additional information" — exchange just that additional information
// (the Aux field) and regenerate the state locally.
type StateKind uint8

const (
	// StateFull: State is a complete service snapshot.
	StateFull StateKind = iota
	// StateDelta: State is a delta against the previous instance's
	// post-state; applying it requires a contiguous log.
	StateDelta
)

// ConfigOp classifies a membership-change proposal (online
// reconfiguration). Configuration entries ride the normal Paxos path —
// one instance decides one add-one or remove-one change — and the voter
// set and quorum sizes switch exactly at the commit point.
type ConfigOp uint8

const (
	// ConfigNone: an ordinary proposal, no membership change.
	ConfigNone ConfigOp = iota
	// ConfigAddVoter promotes a caught-up learner to a voting member.
	ConfigAddVoter
	// ConfigRemove removes a member from the voter set.
	ConfigRemove

	numConfigOps
)

func (o ConfigOp) String() string {
	switch o {
	case ConfigNone:
		return "none"
	case ConfigAddVoter:
		return "add-voter"
	case ConfigRemove:
		return "remove"
	default:
		return fmt.Sprintf("configop(%d)", uint8(o))
	}
}

// Proposal is the value decided by one consensus instance: the request and
// the leader's post-execution state (§3.3). For ordinary instances the
// proposal carries exactly one request; for T-Paxos commit instances it
// carries every request of the transaction in execution order. A
// configuration entry (ConfigOp != ConfigNone) carries no requests; it
// changes the membership when it commits.
type Proposal struct {
	Reqs []Request
	// State is the leader's service state after executing Reqs — a full
	// snapshot or a delta, per Kind. In full mode, multi-instance
	// accept messages carry it only on the highest instance
	// (HasState=false elsewhere) because replicas only ever need the
	// latest state.
	State    []byte
	HasState bool
	// Kind classifies State.
	Kind StateKind
	// Aux carries, per request, the captured nondeterministic choices
	// for replay-mode services (§3.3's "additional information");
	// replicas regenerate the state by deterministic re-execution.
	Aux [][]byte
	// Results are the service replies produced by the leader when it
	// executed Reqs, carried so that a new leader can re-reply to
	// clients without re-executing (nondeterminism is captured once).
	Results [][]byte
	// ConfigOp, when not ConfigNone, marks this proposal as a
	// membership-change entry for ConfigNode. The new configuration
	// takes effect at the commit point of this instance.
	ConfigOp ConfigOp
	// ConfigNode is the member being added or removed.
	ConfigNode NodeID
	// ConfigAddr is ConfigNode's transport address (add-voter entries
	// only), so replicas that learn the entry late — through recovery or
	// catch-up — can still route to the new member.
	ConfigAddr string
}

// IsConfig reports whether the proposal is a membership-change entry.
func (p *Proposal) IsConfig() bool { return p.ConfigOp != ConfigNone }

// Entry is a proposal bound to an instance and the ballot under which it
// was accepted.
type Entry struct {
	Instance uint64
	Bal      Ballot
	Prop     Proposal
}

// MsgType discriminates envelope payloads on the wire.
type MsgType uint8

const (
	MsgInvalid MsgType = iota
	MsgRequest
	MsgReply
	MsgPrepare
	MsgPromise
	MsgAccept
	MsgAccepted
	MsgCommit
	MsgConfirm
	MsgHeartbeat
	MsgCatchUpReq
	MsgCatchUpResp
	MsgJoinReq
	MsgSnapReq
	MsgSnapChunk

	numMsgTypes
)

func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "request"
	case MsgReply:
		return "reply"
	case MsgPrepare:
		return "prepare"
	case MsgPromise:
		return "promise"
	case MsgAccept:
		return "accept"
	case MsgAccepted:
		return "accepted"
	case MsgCommit:
		return "commit"
	case MsgConfirm:
		return "confirm"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgCatchUpReq:
		return "catchup-req"
	case MsgCatchUpResp:
		return "catchup-resp"
	case MsgJoinReq:
		return "join-req"
	case MsgSnapReq:
		return "snap-req"
	case MsgSnapChunk:
		return "snap-chunk"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// Message is implemented by every protocol message body.
type Message interface {
	// Type returns the wire discriminator for this message.
	Type() MsgType
	// MarshalTo appends the binary encoding of the message to enc.
	MarshalTo(enc *Encoder)
	// UnmarshalFrom decodes the message body from dec.
	UnmarshalFrom(dec *Decoder) error
}

// Envelope is a routed protocol message.
type Envelope struct {
	From NodeID
	To   NodeID
	Msg  Message
}

// Prepare is the phase-1a message. A freshly elected leader sends a single
// Prepare covering every instance it does not know to be chosen: the gap
// instances below its highest known chosen instance, plus every instance
// strictly above After (§3.3).
type Prepare struct {
	Bal   Ballot
	After uint64   // prepare all instances > After ...
	Gaps  []uint64 // ... plus these specific unchosen instances below it
}

func (*Prepare) Type() MsgType { return MsgPrepare }

// Promise is the phase-1b message. Entries reports accepted proposals the
// acceptor knows for the prepared instances; per §3.3 only the entry with
// the highest instance carries service state.
type Promise struct {
	Bal     Ballot
	From    NodeID
	OK      bool
	MaxProm Ballot // on rejection: the ballot that blocked the prepare
	Entries []Entry
	// Chosen is the acceptor's commit index, letting a new leader learn
	// already-chosen instances without re-running consensus for them.
	Chosen uint64
}

func (*Promise) Type() MsgType { return MsgPromise }

// Accept is the phase-2a message. One message may carry several instances
// (recovery after a leader switch, and batched client writes); only the
// highest instance needs HasState=true.
type Accept struct {
	Bal     Ballot
	Entries []Entry
	// Commit piggybacks the sender's commit index so backups learn
	// chosen instances without a separate Commit message round.
	Commit uint64
}

func (*Accept) Type() MsgType { return MsgAccept }

// Accepted is the phase-2b message acknowledging (or rejecting) an Accept.
type Accepted struct {
	Bal       Ballot
	From      NodeID
	OK        bool
	MaxProm   Ballot   // on rejection: the promise that blocked acceptance
	Instances []uint64 // instances acknowledged
}

func (*Accepted) Type() MsgType { return MsgAccepted }

// Commit announces that all instances up to and including Index are chosen.
type Commit struct {
	Bal   Ballot
	Index uint64
}

func (*Commit) Type() MsgType { return MsgCommit }

// Confirm is the X-Paxos read confirmation (§3.4): upon receiving a read
// request it does not serve, a replica sends a Confirm for that read to
// the replica that does — the process that proposed the highest ballot it
// has promised, or the nearest replica the request names.
// Reads that arrive at a backup in one burst coalesce into a single
// Confirm carrying every read's key, so N concurrent reads cost one
// confirm message per backup instead of N. Each key is still independent
// per-read evidence: the confirm was sent after each listed read was
// received, which is what the linearizability argument needs.
type Confirm struct {
	Bal   Ballot // highest ballot the sender has promised
	From  NodeID
	Reads []Key // the read requests being confirmed
	// MaxAcc is the sender's highest accepted instance at send time. A
	// replica counting the confirm by its stamp (DESIGN.md §18) raises
	// the read's barrier to it: any acked write is accepted by a
	// majority, every confirm majority intersects it, so the barrier
	// covers the write. The active leader counting a confirm under its
	// own ballot ignores it (its own proposal horizon is the barrier
	// there). Encoded as a trailing field only when MaxAccSet, so
	// confirms without the stamp are byte-for-byte the pre-§16 format; a
	// confirm without the stamp (only an old peer sends one) vouches by
	// ballot only — there is no barrier claim to fold.
	MaxAcc    uint64
	MaxAccSet bool
}

func (*Confirm) Type() MsgType { return MsgConfirm }

// Heartbeat drives the Ω leader-election service and doubles as the
// anti-entropy signal: Chosen lets a recovered replica discover that it
// is behind and request catch-up even when no client traffic flows.
type Heartbeat struct {
	From   NodeID
	Epoch  uint64 // leadership claim epoch (0 when not claiming)
	Leader NodeID // sender's current leader estimate
	Chosen uint64 // sender's commit index
	// Applied is the sender's applied watermark — the instance whose
	// post-state its service reflects. Replicas gossip it so storage can
	// prune WAL records below the cluster-wide minimum (DESIGN.md §12).
	Applied uint64
	// Cost is the sender's self-measured placement cost (a quantized
	// aggregate peer RTT offset by one, DESIGN.md §16; 0 = unknown/off,
	// ranked behind every measured cost). Electors fold it in front of
	// the configured rank, so leadership drifts to the best-connected
	// replica once costs are gossiped. Encoded as a trailing field only
	// when nonzero, so heartbeats from clusters not using RTT placement
	// stay byte-for-byte the pre-§16 format.
	Cost uint32
}

func (*Heartbeat) Type() MsgType { return MsgHeartbeat }

// CatchUpReq asks a peer for the chosen log suffix after HaveChosen.
type CatchUpReq struct {
	From       NodeID
	HaveChosen uint64
}

func (*CatchUpReq) Type() MsgType { return MsgCatchUpReq }

// CatchUpResp carries the chosen entries a lagging replica asked for, each
// with the effect needed to apply it (DESIGN.md "State transfer"; a peer
// that no longer holds the effects streams SnapChunks instead). State and
// StateAt, once the responder's full service state, stay in the encoding:
// no longer sent, ignored when received.
type CatchUpResp struct {
	From    NodeID
	Entries []Entry
	Chosen  uint64
	State   []byte
	StateAt uint64
}

func (*CatchUpResp) Type() MsgType { return MsgCatchUpResp }

// JoinReq announces a node that wants to become a member. The joiner
// broadcasts it until it sees itself in a committed configuration: every
// receiver learns the joiner's transport address, and the leader admits
// the node as a non-voting learner, proposing the add-voter configuration
// entry once the learner's gossiped applied watermark has caught up.
type JoinReq struct {
	From NodeID
	// Addr is the joiner's transport listen address ("" on transports
	// that route by node ID and need no address book).
	Addr string
	// Applied is the joiner's applied watermark at send time, so the
	// leader can track catch-up progress before the first heartbeat.
	Applied uint64
}

func (*JoinReq) Type() MsgType { return MsgJoinReq }

// SnapReq asks a peer for one chunk of its latest service-state snapshot.
// The first request carries SnapAt 0 (any snapshot) and Offset 0; the
// responder pins a snapshot and the requester then asks for successive
// offsets of that SnapAt, which is what makes the stream resumable: after
// a lost chunk or a responder switch, the requester re-asks at the offset
// it has assembled so far.
type SnapReq struct {
	From NodeID
	// SnapAt names the snapshot being streamed (its applied instance); 0
	// lets the responder pick its latest.
	SnapAt uint64
	// Offset is the byte offset of the requested chunk.
	Offset uint64
}

func (*SnapReq) Type() MsgType { return MsgSnapReq }

// SnapChunk carries one bounded chunk of a service-state snapshot valid
// after applying instance SnapAt. Sum is the CRC-32 of the *whole*
// snapshot, verified by the requester after the final chunk; each chunk
// is additionally protected by the transport framing. Members/Learners
// describe the membership as of SnapAt so a fresh replica installs the
// configuration together with the state.
type SnapChunk struct {
	From     NodeID
	SnapAt   uint64
	Total    uint64 // total snapshot bytes
	Offset   uint64 // offset of Data within the snapshot
	Data     []byte
	Sum      uint32 // CRC-32 (IEEE) of the full snapshot
	Members  []NodeID
	Learners []NodeID
}

func (*SnapChunk) Type() MsgType { return MsgSnapChunk }

// RequestMsg wraps a client Request for transport.
type RequestMsg struct {
	Req Request
}

func (*RequestMsg) Type() MsgType { return MsgRequest }

// ReplyMsg wraps a Reply for transport.
type ReplyMsg struct {
	Rep Reply
}

func (*ReplyMsg) Type() MsgType { return MsgReply }

// New returns a zero message value for the given wire type, or nil if the
// type is unknown.
func New(t MsgType) Message {
	switch t {
	case MsgRequest:
		return &RequestMsg{}
	case MsgReply:
		return &ReplyMsg{}
	case MsgPrepare:
		return &Prepare{}
	case MsgPromise:
		return &Promise{}
	case MsgAccept:
		return &Accept{}
	case MsgAccepted:
		return &Accepted{}
	case MsgCommit:
		return &Commit{}
	case MsgConfirm:
		return &Confirm{}
	case MsgHeartbeat:
		return &Heartbeat{}
	case MsgCatchUpReq:
		return &CatchUpReq{}
	case MsgCatchUpResp:
		return &CatchUpResp{}
	case MsgJoinReq:
		return &JoinReq{}
	case MsgSnapReq:
		return &SnapReq{}
	case MsgSnapChunk:
		return &SnapChunk{}
	default:
		return nil
	}
}
