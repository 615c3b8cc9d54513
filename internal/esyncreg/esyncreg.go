// Package esyncreg implements the paper's eventually synchronous regular
// register protocol (§5, Figures 4, 5 and 6), generalized from one
// register to a keyed register namespace served by a single join.
//
// The protocol cannot rely on the passage of time (δ and GST exist but are
// unknown to processes), so every operation is acknowledgment-based:
//
//   - join (Figure 4): broadcast INQUIRY(i, 0) and wait until a majority
//     (⌊n/2⌋+1) of REPLYs arrive; each reply carries the replier's WHOLE
//     register space in one message (batch dissemination), and the joiner
//     adopts, per key, the highest sequence number; then answer every
//     request deferred in reply_to and dl_prev.
//   - read (Figure 5): a simplified join, per key — broadcast
//     READ(i, read_sn, k), wait for a majority of matching REPLYs, merge,
//     return the local copy of k.
//   - write (Figure 6): read the key first (to learn its greatest sequence
//     number), then broadcast WRITE(i, ⟨v, sn+1⟩, k) and wait for a
//     majority of ACKs carrying (k, sn+1).
//
// Concurrency: the paper's processes are sequential — one operation at a
// time. This node is not: every client operation is an entry in ONE
// operation table keyed by core.OpID (the generalization of the paper's
// read_sn to all operations — both tags are drawn from the same per-node
// counter), so any number of reads and writes may be in flight, across
// keys and pipelined on the same key. Replies route to the exact
// operation whose OpID they echo; acknowledgments route by echoed OpID
// or, for the indirect Lemma-7 acks, by the ⟨key, sequence number⟩ they
// name. The one serialization that remains is SN ASSIGNMENT: pipelined
// writes to one key pass through a per-key FIFO at the moment their
// embedded read completes, so a node's writes to a key carry strictly
// increasing sequence numbers in invocation order. The paper's
// no-concurrent-writes discipline survives per key ACROSS nodes — two
// different nodes must still not write one key concurrently.
//
// Membership vs. register state: the join, the active flag and the
// deferred-request sets are maintained once per process; everything
// register-valued — local copies and the operation table — is keyed by
// core.RegisterID or core.OpID and instantiated lazily.
//
// The DL_PREV mechanism is what makes operations live (Lemmas 5–7): a
// process that sees a request it cannot answer yet — or that has a pending
// read a newcomer can't know about — hands the requester/newcomer an
// obligation to reply later. Without it, concurrent joins starve each other
// under churn; Options.DisableDLPrev exposes that ablation (experiment E9).
//
// Correctness requires a majority of the n processes active at all times
// and c ≤ 1/(3δn) (§5.2); the package does not enforce either — experiments
// explore both sides.
//
// This implementation is deliberately time-free: it never calls env.After
// or env.Delta (asserted by tests), matching the paper's "the date GST and
// the bound δ can never be explicitly known by the processes".
package esyncreg

import (
	"churnreg/internal/core"
)

// Options tune the protocol for experiments.
type Options struct {
	// DisableDLPrev removes the DL_PREV deferred-reply mechanism
	// (Figure 4 lines 14, 16, 22 and the dl_prev part of line 08). The
	// protocol loses join/read liveness under concurrent joins — the E9
	// ablation demonstrates it.
	DisableDLPrev bool
	// LiteralAckRSN makes the REPLY-triggered ACK carry the request's
	// read sequence number, the literal text of Figure 4 line 20, instead
	// of the register sequence number Lemma 7 needs (ARCHITECTURE.md §1,
	// "The REPLY-triggered ACK"). With it, writers can starve (tested).
	LiteralAckRSN bool
}

// reqKey identifies a pending remote request: who asked, which of their
// requests (read_sn, numerically the requester's OpID; 0 is the join),
// and — for reads — which register. A join request (rsn == JoinReadSeq)
// is answered with a full snapshot, so its reg is irrelevant and left
// zero.
type reqKey struct {
	id  core.ProcessID
	rsn core.ReadSeq
	reg core.RegisterID
}

// op is one in-flight client operation — a read, or a write with its
// embedded read phase. Its OpID tags every request it broadcasts, which
// is how replies and acks find it among arbitrarily many concurrent
// operations (the per-key single pending slot this table replaced).
type op struct {
	reg core.RegisterID

	// scope/quorum pin the operation's quorum population at invocation:
	// unsharded, scope is nil and quorum is ⌊n/2⌋+1; sharded, scope is
	// the key's replica group and quorum a majority of it — replies and
	// acks from outside the scope (DL_PREV answerers that joined after
	// the broadcast, say) never count, preserving the per-shard quorum
	// intersection (core.OpScope).
	scope  map[core.ProcessID]bool
	quorum int

	// Read phase: Figure 5's reading_i / replies_i for a client read, or
	// Figure 6 line 01's embedded read for a write.
	reading     bool
	readReplies map[core.ProcessID]core.VersionedValue
	readDone    func(core.VersionedValue)

	// Write phase (Figure 6). writeReadDone marks the embedded read
	// complete while the op waits its turn in the key's SN-assignment
	// FIFO; writeBroadcast marks the WRITE out, which gates ACK counting
	// (without it, stale ACKs arriving during the embedded read would
	// complete the operation before it broadcast anything).
	isWrite        bool
	writeVal       core.Value
	writeReadDone  bool
	writeBroadcast bool
	writeSN        core.SeqNum
	writeAck       map[core.ProcessID]bool
	writeDone      func(core.VersionedValue)
}

// ackKey routes acknowledgments that carry no OpID — the Lemma-7 reply
// acks, whose sender cannot know the writer's OpID — to the in-flight
// write whose ⟨register, sequence number⟩ they name.
type ackKey struct {
	reg core.RegisterID
	sn  core.SeqNum
}

// Node is one process running the eventually synchronous protocol. It must
// only be driven by a single-threaded runtime (core.Env guarantees this).
type Node struct {
	env  core.Env
	opts Options

	// vals holds (register_i, sn_i) per key; a key is absent until a
	// value for it is learned.
	vals *core.RegStore
	// active is active_i.
	active bool
	// joining marks the window between Start and the join quorum.
	joining bool
	// joinReplies is replies_i for the join: the distinct repliers whose
	// snapshots were merged (values fold into vals on arrival; only the
	// replier set is needed for the majority test).
	joinReplies map[core.ProcessID]bool
	// ops is the operation table. Its counter doubles as read_sn_i: 0
	// identifies the join inquiry, every operation draws the next value.
	ops *core.OpTable[op]
	// writeQ orders SN assignment per key: write OpIDs in invocation
	// order, popped as their embedded reads complete (head first).
	writeQ map[core.RegisterID][]core.OpID
	// ackRoute indexes broadcast writes by the ⟨reg, sn⟩ their acks name.
	ackRoute map[ackKey]core.OpID
	// replyTo is reply_to_i; insertion-ordered for determinism.
	replyTo     map[reqKey]bool
	replyToList []reqKey
	// dlPrev is dl_prev_i; insertion-ordered for determinism.
	dlPrev     map[reqKey]bool
	dlPrevList []reqKey

	joinDone []func()

	stats Stats
}

// Stats counts protocol activity at this node.
type Stats struct {
	Reads            uint64
	Writes           uint64
	JoinInquiries    uint64 // INQUIRY broadcasts sent by this node's join (0 or 1)
	RepliesSent      uint64
	DeferredReplies  uint64 // replies sent at join completion (reply_to ∪ dl_prev)
	DLPrevSent       uint64
	AcksSent         uint64
	StaleRepliesSeen uint64 // REPLYs whose op tag matched no open request
}

// New builds a node. Bootstrap nodes hold the initial values and are
// active immediately; all others start the join operation when Start is
// called.
func New(env core.Env, sc core.SpawnContext, opts Options) *Node {
	n := &Node{
		env:         env,
		opts:        opts,
		vals:        core.NewRegStore(sc),
		joinReplies: make(map[core.ProcessID]bool),
		ops:         core.NewOpTable[op](0),
		writeQ:      make(map[core.RegisterID][]core.OpID),
		ackRoute:    make(map[ackKey]core.OpID),
		replyTo:     make(map[reqKey]bool),
		dlPrev:      make(map[reqKey]bool),
	}
	n.active = sc.Bootstrap
	return n
}

// Factory returns a core.NodeFactory building nodes with opts.
func Factory(opts Options) core.NodeFactory {
	return func(env core.Env, sc core.SpawnContext) core.Node {
		return New(env, sc, opts)
	}
}

// Compile-time interface checks.
var (
	_ core.Node             = (*Node)(nil)
	_ core.Reader           = (*Node)(nil)
	_ core.Writer           = (*Node)(nil)
	_ core.Joiner           = (*Node)(nil)
	_ core.KeyedReader      = (*Node)(nil)
	_ core.KeyedWriter      = (*Node)(nil)
	_ core.SNWriter         = (*Node)(nil)
	_ core.KeyedSnapshotter = (*Node)(nil)
	_ core.OpAccountant     = (*Node)(nil)
)

// majority returns ⌊n/2⌋+1, the quorum size backed by the §5.2 assumption
// that a majority of the n processes is active at every instant.
func (n *Node) majority() int { return n.env.SystemSize()/2 + 1 }

// value and merge are per-key store accessors threading the node's
// activation state (see core.RegStore.Value for the ⊥/implicit-initial
// rules).
func (n *Node) value(k core.RegisterID) core.VersionedValue { return n.vals.Value(k, n.active) }

func (n *Node) merge(k core.RegisterID, v core.VersionedValue) {
	n.vals.Merge(k, v, n.active)
}

// Start implements core.Node — operation join(i), Figure 4 lines 01-04.
func (n *Node) Start() {
	if n.active {
		n.env.MarkActive()
		return
	}
	n.joining = true
	// Lines 01-02: initialization happened in New; read_sn_i starts at 0
	// (the op counter's NoOp), identifying this join's inquiry.
	// Line 03: broadcast INQUIRY(i, read_sn_i) — the process's one and
	// only join inquiry, whatever number of registers the namespace holds.
	n.stats.JoinInquiries++
	n.env.Broadcast(core.InquiryMsg{From: n.env.ID(), RSN: core.JoinReadSeq, Op: core.NoOp})
	// Line 04 ("wait until |replies_i| ≥ n/2+1") is event-driven: the
	// check runs on every REPLY arrival (checkJoin).
}

// checkJoin completes the join once a majority of snapshot replies arrived
// (Figure 4 lines 05-11). Per-key values were merged on arrival.
func (n *Node) checkJoin() {
	if !n.joining || len(n.joinReplies) < n.majority() {
		return
	}
	n.joining = false
	// Line 07: become active.
	n.active = true
	n.env.MarkActive()
	// Lines 08-10: answer everything deferred in reply_to ∪ dl_prev.
	n.flushDeferred()
	// Line 11: return ok.
	done := n.joinDone
	n.joinDone = nil
	for _, f := range done {
		f()
	}
}

// flushDeferred sends the deferred REPLYs of Figure 4 lines 08-10 and
// clears both sets. Join requests get a full snapshot; reads get their
// key's copy.
func (n *Node) flushDeferred() {
	sent := make(map[reqKey]bool, len(n.replyToList)+len(n.dlPrevList))
	for _, k := range append(append([]reqKey{}, n.replyToList...), n.dlPrevList...) {
		if sent[k] {
			continue
		}
		sent[k] = true
		n.stats.DeferredReplies++
		n.env.Send(k.id, n.replyFor(k))
	}
	n.replyTo = make(map[reqKey]bool)
	n.replyToList = nil
	n.dlPrev = make(map[reqKey]bool)
	n.dlPrevList = nil
}

// replyFor builds the REPLY answering one deferred request, echoing the
// requester's operation id (numerically its read_sn).
func (n *Node) replyFor(k reqKey) core.ReplyMsg {
	if k.rsn == core.JoinReadSeq {
		return n.snapshotReply(k.rsn)
	}
	return core.ReplyMsg{From: n.env.ID(), Value: n.value(k.reg), RSN: k.rsn, Reg: k.reg, Op: core.OpID(k.rsn)}
}

// snapshotReply builds a REPLY carrying this node's entire register space
// (see core.RegStore.SnapshotReply).
func (n *Node) snapshotReply(rsn core.ReadSeq) core.ReplyMsg {
	return n.vals.SnapshotReply(n.env.ID(), rsn, n.active)
}

// OnJoined implements core.Joiner.
func (n *Node) OnJoined(done func()) {
	if done == nil {
		return
	}
	if n.active {
		done()
		return
	}
	n.joinDone = append(n.joinDone, done)
}

// Active implements core.Node.
func (n *Node) Active() bool { return n.active }

// Snapshot implements core.Node (key 0's local copy).
func (n *Node) Snapshot() core.VersionedValue { return n.value(core.DefaultRegister) }

// SnapshotKey implements core.KeyedSnapshotter.
func (n *Node) SnapshotKey(k core.RegisterID) core.VersionedValue { return n.value(k) }

// Keys implements core.KeyedSnapshotter.
func (n *Node) Keys() []core.RegisterID { return n.vals.Keys() }

// PendingOps implements core.OpAccountant.
func (n *Node) PendingOps() int { return n.ops.Len() }

// Stats returns a copy of this node's counters.
func (n *Node) Stats() Stats { return n.stats }

// Read implements core.Reader — key-0 sugar for ReadKey.
func (n *Node) Read(done func(core.VersionedValue)) error {
	return n.ReadKey(core.DefaultRegister, done)
}

// ReadKey implements core.KeyedReader — operation read(i), Figure 5 lines
// 01-07, on one key. done receives the value the read returns. Any number
// of reads may be in flight concurrently, on this key or others;
// ErrOpInProgress only signals a full operation table.
func (n *Node) ReadKey(k core.RegisterID, done func(core.VersionedValue)) error {
	if !n.active {
		return core.ErrNotActive
	}
	if n.ops.Full() {
		return core.ErrOpInProgress
	}
	// Line 01: read_sn_i := read_sn_i + 1 — the op counter, so every
	// in-flight request (join or any operation) has a unique tag.
	id, o := n.ops.Begin()
	n.stats.Reads++
	o.reg = k
	o.scope, o.quorum = core.OpScope(n.env, k)
	o.readDone = done
	n.startReadPhase(id, o)
	return nil
}

// startReadPhase is Figure 5 lines 02-03, shared by client reads and the
// write's embedded read: the broadcast READ carries the operation's id.
func (n *Node) startReadPhase(id core.OpID, o *op) {
	// Line 02: replies := ∅; reading := true.
	o.reading = true
	o.readReplies = make(map[core.ProcessID]core.VersionedValue)
	// Line 03: broadcast READ(i, read_sn_i) — to the key's replica group
	// when sharded, the full membership otherwise.
	core.ScopedBroadcast(n.env, o.reg, core.ReadMsg{From: n.env.ID(), RSN: core.ReadSeq(id), Reg: o.reg, Op: id})
	// Line 04 is event-driven (checkRead on every REPLY).
}

// checkRead completes an operation's read phase once a majority of
// matching replies arrived (Figure 5 lines 05-07): a client read returns;
// a write proceeds to SN assignment through its key's FIFO.
func (n *Node) checkRead(id core.OpID, o *op) {
	if !o.reading || len(o.readReplies) < o.quorum {
		return
	}
	// Lines 05-06: merge the most up-to-date value.
	for _, v := range o.readReplies {
		n.merge(o.reg, v)
	}
	// Line 07: reading := false; return register_i.
	o.reading = false
	o.readReplies = nil
	if o.isWrite {
		o.writeReadDone = true
		n.pumpWrites(o.reg)
		return
	}
	n.ops.Finish(id)
	if o.readDone != nil {
		o.readDone(n.value(o.reg))
	}
}

// Write implements core.Writer — key-0 sugar for WriteKey.
func (n *Node) Write(v core.Value, done func()) error {
	return n.WriteKey(core.DefaultRegister, v, done)
}

// WriteKey implements core.KeyedWriter — sugar over WriteKeySN.
func (n *Node) WriteKey(k core.RegisterID, v core.Value, done func()) error {
	return n.WriteKeySN(k, v, func(core.VersionedValue) {
		if done != nil {
			done()
		}
	})
}

// WriteKeySN implements core.SNWriter — operation write(v), Figure 6
// lines 01-05, on one key. done receives the exact ⟨v, sn⟩ this write
// stored. Writes may be in flight concurrently on this node — across
// keys, and pipelined on one key: each runs its own embedded read, and
// the key's FIFO assigns sequence numbers in invocation order. The
// paper's no-concurrent-writes discipline applies per key across nodes.
func (n *Node) WriteKeySN(k core.RegisterID, v core.Value, done func(core.VersionedValue)) error {
	if !n.active {
		return core.ErrNotActive
	}
	if n.ops.Full() {
		return core.ErrOpInProgress
	}
	id, o := n.ops.Begin()
	n.stats.Writes++
	o.reg = k
	o.scope, o.quorum = core.OpScope(n.env, k)
	o.isWrite = true
	o.writeVal = v
	o.writeDone = done
	// Invocation order is FIFO order: this is what keeps pipelined writes
	// to one key numbered in the order the client issued them.
	n.writeQ[k] = append(n.writeQ[k], id)
	// Line 01: read() — obtain the key's greatest sequence number. The
	// embedded read also refreshes the local copy, so line 02's increment
	// builds on it.
	n.startReadPhase(id, o)
	return nil
}

// pumpWrites advances one key's SN-assignment FIFO: while the oldest
// pending write has finished its embedded read, assign it the next
// sequence number and broadcast its WRITE (Figure 6 lines 02-04). Later
// writes whose reads finished early wait for the head — that is the one
// serialization pipelining keeps, and it is local bookkeeping only (no
// messages, no waits).
func (n *Node) pumpWrites(k core.RegisterID) {
	q := n.writeQ[k]
	for len(q) > 0 {
		id := q[0]
		o, ok := n.ops.Get(id)
		if !ok {
			q = q[1:]
			continue
		}
		if !o.writeReadDone {
			break
		}
		// Line 02: sn_i := sn_i + 1; register_i := v — building on the
		// local copy, which already reflects every earlier pipelined
		// write on this key.
		next := core.VersionedValue{Val: o.writeVal, SN: n.value(k).SN + 1}
		n.vals.Store(k, next)
		o.writeSN = next.SN
		// Line 03: write_ack := ∅.
		o.writeAck = make(map[core.ProcessID]bool)
		o.writeBroadcast = true
		n.ackRoute[ackKey{reg: k, sn: next.SN}] = id
		// Line 04: broadcast WRITE(i, ⟨v, sn⟩) — scoped to the key's
		// replica group when sharded.
		core.ScopedBroadcast(n.env, k, core.WriteMsg{From: n.env.ID(), Value: next, Reg: k, Op: id})
		q = q[1:]
	}
	if len(q) == 0 {
		delete(n.writeQ, k)
	} else {
		n.writeQ[k] = q
	}
}

// checkWrite completes a write once a majority of ACKs arrived (Figure 6
// line 05).
func (n *Node) checkWrite(id core.OpID, o *op) {
	if !o.writeBroadcast || len(o.writeAck) < o.quorum {
		return
	}
	delete(n.ackRoute, ackKey{reg: o.reg, sn: o.writeSN})
	n.ops.Finish(id)
	if o.writeDone != nil {
		o.writeDone(core.VersionedValue{Val: o.writeVal, SN: o.writeSN})
	}
}

// Deliver implements core.Node, dispatching the handlers of Figures 4-6.
func (n *Node) Deliver(from core.ProcessID, m core.Message) {
	switch msg := m.(type) {
	case core.InquiryMsg:
		n.handleInquiry(msg)
	case core.ReadMsg:
		n.handleRead(msg)
	case core.ReplyMsg:
		n.handleReply(msg)
	case core.WriteMsg:
		n.handleWrite(msg)
	case core.AckMsg:
		n.handleAck(msg)
	case core.DLPrevMsg:
		n.handleDLPrev(msg)
	default:
		panic("esyncreg: unexpected message kind " + m.Kind().String())
	}
}

// handleInquiry is Figure 4 lines 12-17.
func (n *Node) handleInquiry(m core.InquiryMsg) {
	if n.active {
		// Line 13: answer immediately — with the whole register space.
		n.stats.RepliesSent++
		n.env.Send(m.From, n.snapshotReply(m.RSN))
		// Line 14: a reading process also asks the newcomer to answer its
		// in-flight reads once active — the newcomer was not in those READ
		// broadcasts' snapshots and would otherwise never reply. One
		// DL_PREV per operation in its read phase (client reads and
		// writes' embedded reads alike), each carrying OUR pending
		// request id, which is what the newcomer must echo for line 19's
		// match to succeed. Ascending OpID keeps the fan-out order
		// deterministic.
		if !n.opts.DisableDLPrev {
			for _, id := range n.ops.IDs() {
				o, ok := n.ops.Get(id)
				if !ok || !o.reading {
					continue
				}
				n.stats.DLPrevSent++
				n.env.Send(m.From, core.DLPrevMsg{From: n.env.ID(), RSN: core.ReadSeq(id), Reg: o.reg, Op: id})
			}
		}
		return
	}
	// Line 15: we cannot answer yet; remember the request.
	n.defer_(reqKey{id: m.From, rsn: m.RSN})
	// Line 16: and ask the inquirer to answer OUR join (pending request 0)
	// when it becomes active — two concurrent joiners promise each other
	// replies, which is what makes join live (Lemma 5).
	if !n.opts.DisableDLPrev {
		n.stats.DLPrevSent++
		n.env.Send(m.From, core.DLPrevMsg{From: n.env.ID(), RSN: core.JoinReadSeq, Op: core.NoOp})
	}
}

// handleRead is Figure 5 lines 08-11.
func (n *Node) handleRead(m core.ReadMsg) {
	if n.active {
		// Line 09.
		n.stats.RepliesSent++
		n.env.Send(m.From, core.ReplyMsg{From: n.env.ID(), Value: n.value(m.Reg), RSN: m.RSN, Reg: m.Reg, Op: m.Op})
		return
	}
	// Line 10: answer at join completion.
	n.defer_(reqKey{id: m.From, rsn: m.RSN, reg: m.Reg})
}

// handleReply is Figure 4 lines 18-21, routing the reply to the open
// operation whose id it echoes: the join (NoOp), or any in-flight read
// phase.
func (n *Node) handleReply(m core.ReplyMsg) {
	if m.Op == core.NoOp {
		n.handleJoinReply(m)
		return
	}
	o, open := n.ops.Get(m.Op)
	if !open || !o.reading || o.reg != m.Reg {
		// Line 19: only replies to an open request count.
		n.stats.StaleRepliesSeen++
		return
	}
	if !core.InScope(o.scope, m.From) {
		// Sharded: a replier outside the key's replica group (a DL_PREV
		// answerer that joined after the broadcast) must not dilute the
		// per-shard quorum.
		return
	}
	// Line 20: record the reply and acknowledge it. The ACK carries the
	// register sequence number from the reply (not r_sn): if the replier
	// is a writer with an in-flight write on this key, this ACK is how
	// processes that joined after the WRITE broadcast contribute to its
	// quorum (Lemma 7; see ARCHITECTURE.md §1). Options.LiteralAckRSN restores
	// the literal text.
	if cur, ok := o.readReplies[m.From]; !ok || m.Value.MoreRecent(cur) {
		o.readReplies[m.From] = m.Value
	}
	n.ack(m.From, m.Reg, m.Value.SN, m.RSN)
	// Line 04 of Figure 5: re-check the quorum.
	n.checkRead(m.Op, o)
}

// handleJoinReply consumes a snapshot reply to our join inquiry: merge
// every carried key, count the replier, acknowledge, re-check the quorum.
// After the join completed, op 0 stays "open" until the first operation
// bumps the counter (seed parity): such late snapshots are acknowledged —
// their ACKs may feed in-flight write quorums (Lemma 7) — but no longer
// merged, because after the join only WRITEs mutate register state.
func (n *Node) handleJoinReply(m core.ReplyMsg) {
	if !n.joining && n.ops.LastIssued() != core.NoOp {
		n.stats.StaleRepliesSeen++
		return
	}
	if n.joining {
		m.Entries(func(k core.RegisterID, v core.VersionedValue) {
			n.merge(k, v)
		})
		n.joinReplies[m.From] = true
	}
	if n.opts.LiteralAckRSN {
		n.stats.AcksSent++
		n.env.Send(m.From, core.AckMsg{From: n.env.ID(), SN: core.SeqNum(m.RSN), Reg: m.Reg})
	} else {
		m.Entries(func(k core.RegisterID, v core.VersionedValue) {
			n.stats.AcksSent++
			n.env.Send(m.From, core.AckMsg{From: n.env.ID(), SN: v.SN, Reg: k})
		})
	}
	n.checkJoin()
}

// ack acknowledges one reply entry (see handleReply's Lemma 7 note). It
// carries no OpID: the sender cannot know which of the replier's writes —
// if any — it feeds; the writer routes it by ⟨Reg, SN⟩.
func (n *Node) ack(to core.ProcessID, reg core.RegisterID, sn core.SeqNum, rsn core.ReadSeq) {
	if n.opts.LiteralAckRSN {
		sn = core.SeqNum(rsn)
	}
	n.stats.AcksSent++
	n.env.Send(to, core.AckMsg{From: n.env.ID(), SN: sn, Reg: reg, Op: core.NoOp})
}

// handleWrite is Figure 6 lines 06-08 — runs at any process, active or
// joining.
func (n *Node) handleWrite(m core.WriteMsg) {
	// Line 07.
	n.merge(m.Reg, m.Value)
	// Line 08: "In all cases, it sends back an ACK" — even for stale
	// writes, so a slow writer can still terminate. The ACK echoes the
	// WRITE's operation id, routing it straight to the write it answers.
	n.stats.AcksSent++
	n.env.Send(m.From, core.AckMsg{From: n.env.ID(), SN: m.Value.SN, Reg: m.Reg, Op: m.Op})
}

// handleAck is Figure 6 lines 09-10: route by echoed OpID when present
// (direct WRITE acks), else by the ⟨reg, sn⟩ index (Lemma-7 reply-acks).
// ACKs only count once the write's WRITE is out (writeBroadcast), and
// only toward the write whose ⟨reg, sn⟩ they name.
func (n *Node) handleAck(m core.AckMsg) {
	id := m.Op
	if id == core.NoOp {
		var ok bool
		id, ok = n.ackRoute[ackKey{reg: m.Reg, sn: m.SN}]
		if !ok {
			return
		}
	}
	o, ok := n.ops.Get(id)
	if !ok || !o.isWrite || !o.writeBroadcast || o.reg != m.Reg || o.writeSN != m.SN {
		return
	}
	if !core.InScope(o.scope, m.From) {
		return // sharded: only replica-group acks feed the quorum
	}
	o.writeAck[m.From] = true
	n.checkWrite(id, o)
}

// handleDLPrev is Figure 4 line 22.
func (n *Node) handleDLPrev(m core.DLPrevMsg) {
	if n.opts.DisableDLPrev {
		return
	}
	k := reqKey{id: m.From, rsn: m.RSN, reg: m.Reg}
	if k.rsn == core.JoinReadSeq {
		k.reg = core.DefaultRegister
	}
	if n.active {
		// We already became active: answer immediately rather than never.
		// (The paper's line 08 flush happens once, at join completion; a
		// DL_PREV arriving after that would otherwise strand the sender,
		// which can only lose liveness — answering now is safe: it is the
		// same REPLY we would have sent a moment earlier.)
		n.stats.RepliesSent++
		n.env.Send(k.id, n.replyFor(k))
		return
	}
	if !n.dlPrev[k] {
		n.dlPrev[k] = true
		n.dlPrevList = append(n.dlPrevList, k)
	}
}

// defer_ records a request to answer at join completion (reply_to_i).
func (n *Node) defer_(k reqKey) {
	if k.rsn == core.JoinReadSeq {
		k.reg = core.DefaultRegister
	}
	if !n.replyTo[k] {
		n.replyTo[k] = true
		n.replyToList = append(n.replyToList, k)
	}
}
