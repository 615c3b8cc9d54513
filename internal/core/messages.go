package core

import "fmt"

// MsgKind discriminates the wire messages used by the paper's protocols.
type MsgKind int

// Message kinds: one per message named in Figures 1–6, plus the write-
// token messages of the multi-writer extension (internal/multiwriter).
const (
	KindInquiry MsgKind = iota + 1
	KindReply
	KindWrite
	KindAck
	KindRead
	KindDLPrev
	KindClaim
	KindBeat
	KindToken
	KindWriteBatch
	KindForward
	KindForwarded
)

// String returns the paper's message name.
func (k MsgKind) String() string {
	switch k {
	case KindInquiry:
		return "INQUIRY"
	case KindReply:
		return "REPLY"
	case KindWrite:
		return "WRITE"
	case KindAck:
		return "ACK"
	case KindRead:
		return "READ"
	case KindDLPrev:
		return "DL_PREV"
	case KindClaim:
		return "CLAIM"
	case KindBeat:
		return "BEAT"
	case KindToken:
		return "TOKEN"
	case KindWriteBatch:
		return "WRITE_BATCH"
	case KindForward:
		return "FORWARD"
	case KindForwarded:
		return "FORWARDED"
	default:
		return fmt.Sprintf("MsgKind(%d)", int(k))
	}
}

// Message is a protocol wire message; internal/wire encodes every concrete
// type. Both runtimes hand every other process a decoded copy, so nodes
// can never share mutable state through a message. The one exception is
// nettransport's self-delivery, which hands the sender its own value: the
// batch-carrying messages (ReplyMsg, WriteBatchMsg) hold a slice whose
// backing array is then shared, so senders build a fresh slice per
// message and receivers must treat it as immutable.
//
// Per-register messages carry a Reg field whose zero value addresses
// DefaultRegister, so single-register constructions predating the keyed
// namespace keep their meaning unchanged.
type Message interface {
	Kind() MsgKind
}

// InquiryMsg is INQUIRY(i) in the synchronous protocol (Figure 1 line 05)
// and INQUIRY(i, read_sn) in the eventually synchronous one (Figure 4 line
// 03). The synchronous protocol leaves RSN at JoinReadSeq. Op is the
// inquiring operation's id — NoOp for the join, which is the only
// operation that inquires.
type InquiryMsg struct {
	From ProcessID
	RSN  ReadSeq
	Op   OpID
}

// Kind implements Message.
func (InquiryMsg) Kind() MsgKind { return KindInquiry }

// ReplyMsg is REPLY(⟨i, register, sn⟩) (Figure 1 line 11/14) or
// REPLY(⟨i, register, sn⟩, r_sn) (Figure 4 lines 09/13). RSN identifies
// the request being answered in the eventually synchronous protocol.
//
// In the keyed namespace a reply answers either a per-key READ — Reg and
// Value carry that key's copy, Rest is nil — or a join INQUIRY, in which
// case the reply is a SNAPSHOT of the replier's whole register space:
// (Reg, Value) is the first key and Rest carries the remaining keys in
// ascending Reg order. One unicast thus disseminates every key the
// replier holds, which is what lets a process join ONCE and serve reads
// on any key afterwards.
type ReplyMsg struct {
	From  ProcessID
	Value VersionedValue
	RSN   ReadSeq
	Reg   RegisterID
	// Op echoes the request's OpID, so the requester routes the reply to
	// the exact in-flight operation it answers — the pipelining tag that
	// replaces "the node's one pending read". For read-type requests it is
	// numerically RSN (one counter feeds both); NoOp marks a join reply.
	Op OpID
	// Rest holds the snapshot's remaining keys (join replies only).
	// Receivers must not mutate it.
	Rest []KeyedValue
}

// Kind implements Message.
func (ReplyMsg) Kind() MsgKind { return KindReply }

// Entries visits every (reg, value) pair the reply carries, primary entry
// first, without materializing a slice on the single-key fast path.
func (m ReplyMsg) Entries(visit func(RegisterID, VersionedValue)) {
	visit(m.Reg, m.Value)
	for _, kv := range m.Rest {
		visit(kv.Reg, kv.Value)
	}
}

// WriteMsg is WRITE(v, sn) (Figure 2 line 01) or WRITE(i, ⟨v, sn⟩)
// (Figure 6 line 04), addressed to one register of the namespace. Op is
// the writing operation's id at the sender: direct ACKs echo it, so a
// writer with several writes to one key in flight matches each ACK to the
// write it acknowledges. NoOp marks a write-back (atomicreg), which has
// no write operation behind it.
type WriteMsg struct {
	From  ProcessID
	Value VersionedValue
	Reg   RegisterID
	Op    OpID
}

// Kind implements Message.
func (WriteMsg) Kind() MsgKind { return KindWrite }

// WriteBatchMsg disseminates updates to several registers in one
// broadcast (synchronous protocol only): each entry is applied exactly as
// a lone WRITE for its key would be. Entries are in ascending Reg order;
// receivers must not mutate the slice. Op tags the batch operation.
type WriteBatchMsg struct {
	From    ProcessID
	Op      OpID
	Entries []KeyedValue
}

// Kind implements Message.
func (WriteBatchMsg) Kind() MsgKind { return KindWriteBatch }

// AckMsg is ACK(i, sn) (Figure 6 line 08, Figure 4 line 20). SN carries the
// register sequence number being acknowledged (ARCHITECTURE.md §1 says
// why the REPLY-triggered ACK carries the register sn rather than r_sn).
// Reg names the register whose write quorum the ACK feeds. Op echoes the
// WRITE's OpID for acks triggered directly by a WRITE delivery; the
// indirect acks (reply-acks from readers and joiners, Lemma 7) carry NoOp
// — their sender cannot know the writer's OpID — and route at the writer
// by the ⟨Reg, SN⟩ they name instead.
type AckMsg struct {
	From ProcessID
	SN   SeqNum
	Reg  RegisterID
	Op   OpID
}

// Kind implements Message.
func (AckMsg) Kind() MsgKind { return KindAck }

// ReadMsg is READ(i, read_sn) (Figure 5 line 03) for one register. Op is
// the reading operation's id — numerically equal to RSN (both are drawn
// from the node's one operation counter); a write's embedded read phase
// carries the WRITE operation's id, so its replies route to the write.
type ReadMsg struct {
	From ProcessID
	RSN  ReadSeq
	Reg  RegisterID
	Op   OpID
}

// Kind implements Message.
func (ReadMsg) Kind() MsgKind { return KindRead }

// DLPrevMsg is DL_PREV(i, r_sn) (Figure 4 lines 14/16): "I saw your
// request while not yet able to answer it; I will answer when active" —
// the sender asks the receiver to remember it in dl_prev. RSN =
// JoinReadSeq marks the pending request as the sender's join (answered
// with a full snapshot reply); any other RSN is a read of register Reg.
// Op is the sender's pending operation id the receiver must echo in its
// eventual REPLY (numerically RSN; NoOp for a join).
type DLPrevMsg struct {
	From ProcessID
	RSN  ReadSeq
	Reg  RegisterID
	Op   OpID
}

// Kind implements Message.
func (DLPrevMsg) Kind() MsgKind { return KindDLPrev }

// ClaimMsg is the multi-writer extension's CLAIM(i, stamp): process i bids
// for the write token with its invocation timestamp; lower (stamp, id)
// wins a contention burst.
type ClaimMsg struct {
	From  ProcessID
	Stamp int64
}

// Kind implements Message.
func (ClaimMsg) Kind() MsgKind { return KindClaim }

// BeatMsg is the token holder's heartbeat. Free announces a voluntary
// release: holders broadcast it so claimants need not wait out the
// staleness timeout. Seq orders beats from one holder — channels are not
// FIFO, so a pre-release beat can overtake the release's free-beat;
// recipients drop beats whose Seq is not beyond the last Free they saw
// from that process.
type BeatMsg struct {
	From ProcessID
	Free bool
	Seq  uint64
}

// Kind implements Message.
func (BeatMsg) Kind() MsgKind { return KindBeat }

// TokenMsg transfers the write token directly to a chosen successor.
type TokenMsg struct {
	From ProcessID
}

// Kind implements Message.
func (TokenMsg) Kind() MsgKind { return KindToken }

// ForwardCode classifies a FORWARDED outcome.
type ForwardCode byte

// Forwarded outcome codes. Retriable codes mean the operation was NOT
// applied at the serving node, so the requester may safely re-route it;
// ForwardOK carries the result.
const (
	// ForwardOK: the operation was served; Value carries the result.
	ForwardOK ForwardCode = 0
	// ForwardNotActive: the serving node's join has not returned yet.
	ForwardNotActive ForwardCode = 1
	// ForwardBusy: the serving node's operation table is full.
	ForwardBusy ForwardCode = 2
	// ForwardWrongReplica: the serving node is not (or no longer) a
	// replica of the key's shard under its current view.
	ForwardWrongReplica ForwardCode = 3
)

// String names the code.
func (c ForwardCode) String() string {
	switch c {
	case ForwardOK:
		return "OK"
	case ForwardNotActive:
		return "NOT_ACTIVE"
	case ForwardBusy:
		return "BUSY"
	case ForwardWrongReplica:
		return "WRONG_REPLICA"
	default:
		return fmt.Sprintf("ForwardCode(%d)", byte(c))
	}
}

// ForwardMsg is FORWARD(i, op, k[, v]): a node that is not a replica of
// key k's shard relays a client operation to a node that is (reads go to
// any group member, writes to the primary so one process keeps assigning
// the key's sequence numbers). Op is the REQUESTER's forwarding-table id
// — a tag in the internal/shard wrapper's own table, disjoint from the
// inner protocol's operation table — which the answering FORWARDED
// echoes, exactly the OpID-routed reply discipline every other
// request/reply pair uses.
type ForwardMsg struct {
	From    ProcessID
	Op      OpID
	Reg     RegisterID
	IsWrite bool
	Val     Value // write payload; ignored for reads
}

// Kind implements Message.
func (ForwardMsg) Kind() MsgKind { return KindForward }

// ForwardedMsg answers a ForwardMsg: Op echoes the requester's tag,
// Value carries the operation's result (the value read, or the exact
// ⟨v, sn⟩ a write stored), and Code reports refusals. From identifies
// the SERVING replica — history attribution records it.
type ForwardedMsg struct {
	From  ProcessID
	Op    OpID
	Reg   RegisterID
	Value VersionedValue
	Code  ForwardCode
}

// Kind implements Message.
func (ForwardedMsg) Kind() MsgKind { return KindForwarded }

// Compile-time interface checks.
var (
	_ Message = InquiryMsg{}
	_ Message = ReplyMsg{}
	_ Message = WriteMsg{}
	_ Message = AckMsg{}
	_ Message = ReadMsg{}
	_ Message = DLPrevMsg{}
	_ Message = ClaimMsg{}
	_ Message = BeatMsg{}
	_ Message = TokenMsg{}
	_ Message = WriteBatchMsg{}
	_ Message = ForwardMsg{}
	_ Message = ForwardedMsg{}
)
