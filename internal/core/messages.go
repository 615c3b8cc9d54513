package core

import "fmt"

// MsgKind discriminates the wire messages used by the paper's protocols.
type MsgKind int

// Message kinds: one per message named in Figures 1–6, plus the wire
// client's operation messages. Each value is the kind's byte on the wire.
const (
	KindInquiry MsgKind = iota + 1
	KindReply
	KindWrite
	KindAck
	KindRead
	KindDLPrev
	// 7–9 carried a retired write-token lease (CLAIM, BEAT, TOKEN); they
	// stay unassigned so every later kind keeps its byte, and the codec
	// refuses them.
	_
	_
	_
	// 10 carried a retired batched write (WRITE_BATCH); it stays
	// unassigned so FORWARD and FORWARDED keep bytes 11 and 12, and the
	// codec refuses it.
	_
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
	case KindForward:
		return "FORWARD"
	case KindForwarded:
		return "FORWARDED"
	default:
		return fmt.Sprintf("MsgKind(%d)", int(k))
	}
}

// Message is a protocol wire message; internal/wire encodes every concrete
// type. A message is a record that is lent, never boxed: a sender hands
// the runtime a pointer to a record it keeps (Outbox), and Env's Send,
// SendGroup and Broadcast copy it before they return; a receiver gets the
// runtime's own record, a decoded copy, valid only for its Deliver call.
// So no process shares memory with another through a message, and neither
// a send nor a delivery allocates. The one field that points elsewhere, a
// snapshot ReplyMsg's Rest, decodes into a fresh slice per delivery, which
// a receiver may keep.
//
// Per-register messages carry a Reg field whose zero value addresses
// DefaultRegister, so single-register constructions predating the keyed
// namespace keep their meaning unchanged.
type Message interface {
	Kind() MsgKind
}

// InquiryMsg is INQUIRY(i) in the synchronous protocol (Figure 1 line 05)
// and INQUIRY(i, read_sn) in the eventually synchronous one (Figure 4 line
// 03). Op is the read_sn: NoOp for the join, which is the only operation
// that inquires, or a shard handoff's HandoffOp tag.
type InquiryMsg struct {
	From ProcessID
	Op   OpID
}

// Kind implements Message.
func (InquiryMsg) Kind() MsgKind { return KindInquiry }

// ReplyMsg is REPLY(⟨i, register, sn⟩) (Figure 1 line 11/14) or
// REPLY(⟨i, register, sn⟩, r_sn) (Figure 4 lines 09/13); r_sn is Op.
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
	Reg   RegisterID
	// Op echoes the request's OpID, so the requester routes the reply to
	// the exact in-flight operation it answers — the pipelining tag that
	// replaces "the node's one pending read". NoOp marks a join reply.
	Op OpID
	// Rest holds the snapshot's remaining keys (join replies only).
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
// the read_sn: the reading operation's id. A write's embedded read phase
// carries the WRITE operation's id, so its replies route to the write.
type ReadMsg struct {
	From ProcessID
	Reg  RegisterID
	Op   OpID
}

// Kind implements Message.
func (ReadMsg) Kind() MsgKind { return KindRead }

// DLPrevMsg is DL_PREV(i, r_sn) (Figure 4 lines 14/16): "I saw your
// request while not yet able to answer it; I will answer when active" —
// the sender asks the receiver to remember it in dl_prev. Op is r_sn, the
// sender's pending operation id the receiver must echo in its eventual
// REPLY: NoOp marks the sender's join (answered with a full snapshot
// reply); any other Op is a read of register Reg.
type DLPrevMsg struct {
	From ProcessID
	Reg  RegisterID
	Op   OpID
}

// Kind implements Message.
func (DLPrevMsg) Kind() MsgKind { return KindDLPrev }

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

// ForwardMsg is FORWARD(i, op, k[, v]): a wire client's operation on key
// k, sent to a node that serves it (reads to any member of k's replica
// group, writes to the primary so one process keeps assigning the key's
// sequence numbers). Op is the REQUESTER's tag — the client session's,
// disjoint from the serving node's operation table — which the answering
// FORWARDED echoes, exactly the OpID-routed reply discipline every other
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

// Outbox holds the records a node sends its messages from, one per kind:
// each method fills its kind's record with m and returns it, ready for
// Env.Send, SendGroup or Broadcast, which copy it before they return. A
// pointer fits in a Message as it is, so sending from a kept record
// allocates nothing, where a message value would be boxed on every send.
type Outbox struct {
	inquiry InquiryMsg
	reply   ReplyMsg
	write   WriteMsg
	ack     AckMsg
	read    ReadMsg
	dlPrev  DLPrevMsg
}

// Inquiry fills the INQUIRY record.
func (o *Outbox) Inquiry(m InquiryMsg) *InquiryMsg { o.inquiry = m; return &o.inquiry }

// Reply fills the REPLY record.
func (o *Outbox) Reply(m ReplyMsg) *ReplyMsg { o.reply = m; return &o.reply }

// Write fills the WRITE record.
func (o *Outbox) Write(m WriteMsg) *WriteMsg { o.write = m; return &o.write }

// Ack fills the ACK record.
func (o *Outbox) Ack(m AckMsg) *AckMsg { o.ack = m; return &o.ack }

// Read fills the READ record.
func (o *Outbox) Read(m ReadMsg) *ReadMsg { o.read = m; return &o.read }

// DLPrev fills the DL_PREV record.
func (o *Outbox) DLPrev(m DLPrevMsg) *DLPrevMsg { o.dlPrev = m; return &o.dlPrev }

// Compile-time interface checks.
var (
	_ Message = InquiryMsg{}
	_ Message = ReplyMsg{}
	_ Message = WriteMsg{}
	_ Message = AckMsg{}
	_ Message = ReadMsg{}
	_ Message = DLPrevMsg{}
	_ Message = ForwardMsg{}
	_ Message = ForwardedMsg{}
)
