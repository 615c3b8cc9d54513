// Package syncreg implements the paper's synchronous-system regular
// register protocol (§3, Figures 1 and 2), generalized from one register
// to a keyed register namespace served by a single join.
//
// Protocol shape:
//
//   - join (Figure 1): initialize, wait δ (the pre-wait Figure 3 motivates),
//     broadcast INQUIRY and wait 2δ (a broadcast round plus a point-to-point
//     reply round); adopt, per key, the highest sequence number received;
//     become active; answer inquiries deferred while joining.
//   - read (Figure 2): purely local — return the local copy of the key.
//     This is the protocol's "fast reads" design point.
//   - write (Figure 2): increment the key's sequence number, update the
//     local copy, broadcast WRITE, wait δ so the broadcast's timely
//     delivery property has taken effect everywhere, then return.
//
// Concurrency: the paper's processes are sequential; this node is not.
// Every write is an entry in an operation table (core.OpTable) with its
// own δ timer, so one node can have many writes in flight — across keys
// AND pipelined on one key. Sequence numbers are assigned at invocation
// (the local copy advances immediately), so pipelined writes to one key
// from this node carry strictly increasing sequence numbers in invocation
// order; the no-concurrent-writes discipline the paper needs survives per
// key ACROSS nodes, which is the workload's concern.
//
// Membership vs. register state: the join, the active flag, and the
// deferred-inquiry bookkeeping are maintained once per process; everything
// register-valued lives in a map keyed by core.RegisterID, instantiated
// lazily when a WRITE or read first names a key. A join reply carries the
// replier's whole register space in one message (batch dissemination), so
// joining once suffices no matter how many keys exist.
//
// The seed's "register ≠ ⊥ ⇒ skip the INQUIRY" fast path (Figure 1 line
// 03) is gone: it was sound only for a single register (any observed WRITE
// supersedes every earlier one), but in a namespace a WRITE on key A says
// nothing about a write on key B the joiner missed, so a joiner that
// skipped its inquiry could serve stale reads on keys it never heard of.
// Every join now broadcasts exactly one INQUIRY — which also gives the
// membership layer a clean one-join-one-inquiry invariant to assert.
//
// Correctness requires the churn bound c < 1/(3δ) (Theorem 1); the package
// does not enforce the bound — experiments explore both sides of it.
package syncreg

import (
	"churnreg/internal/core"
	"churnreg/internal/placement"
)

// Options tune the protocol for experiments.
type Options struct {
	// SkipInitialWait disables the wait(δ) at Figure 1 line 02. This is
	// the broken variant of Figure 3a; it exists so experiment E1 can
	// demonstrate the violation the wait prevents.
	SkipInitialWait bool
}

// Node is one process running the synchronous protocol. It must only be
// driven by a single-threaded runtime (core.Env guarantees this).
type Node struct {
	env  core.Env
	opts Options

	// regs holds (register_i, sn_i) per key; a key is absent until a value
	// for it is learned (⊥ in the paper's terms, or the implicit initial
	// for keys other than 0 once active — see core.RegStore.Value).
	regs *core.RegStore
	// active is active_i: true once join returned.
	active bool
	// replyTo is reply_to_i: processes whose INQUIRY arrived while we were
	// joining, in arrival order.
	replyTo []core.ProcessID
	// replyToSeen dedupes replyTo.
	replyToSeen map[core.ProcessID]bool
	// ops tracks in-flight writes, one entry per client operation, each
	// completed by its own δ timer.
	ops *core.OpTable[writeOp]
	// waiting holds the in-flight writes' OpIDs from waiting[head] on, in
	// invocation order. Every write waits exactly δ and Env.After breaks
	// ties in call order, so the write timers fire in that order too and
	// each firing completes the oldest: the timer needs no closure naming
	// its write, only finishOldest, bound once in New.
	waiting      []core.OpID
	head         int
	finishOldest func()

	joining bool
	// out holds the records this node sends its messages from.
	out core.Outbox

	stats Stats
}

// Stats counts protocol activity at this node.
type Stats struct {
	Reads            uint64
	Writes           uint64
	JoinInquiries    uint64 // INQUIRY broadcasts sent by this node's join (0 or 1)
	InquiriesServed  uint64
	InquiriesDelayed uint64
	StaleWritesSeen  uint64 // WRITE deliveries with sn <= local sn
}

// New builds a node. Bootstrap nodes hold the initial values and are
// active immediately; all others start the join operation when Start is
// called.
func New(env core.Env, sc core.SpawnContext, opts Options) *Node {
	n := &Node{
		env:         env,
		opts:        opts,
		regs:        core.NewRegStore(sc),
		replyToSeen: make(map[core.ProcessID]bool),
		ops:         core.NewOpTable[writeOp](0),
	}
	n.finishOldest = n.finishWrite
	n.active = sc.Bootstrap
	return n
}

// Factory returns a core.NodeFactory building nodes with opts.
func Factory(opts Options) core.NodeFactory {
	return func(env core.Env, sc core.SpawnContext) core.Node {
		return New(env, sc, opts)
	}
}

// writeOp is one in-flight write operation: the ⟨v, sn⟩ it stored and the
// caller's callback, which its δ timer runs.
type writeOp struct {
	stored core.VersionedValue
	done   func(core.VersionedValue, error)
}

// Compile-time interface checks.
var (
	_ core.Node         = (*Node)(nil)
	_ core.Ops          = (*Node)(nil)
	_ core.Stored       = (*Node)(nil)
	_ core.OpAccountant = (*Node)(nil)
)

// value and merge are per-key store accessors threading the node's
// activation state (see core.RegStore.Value for the ⊥/implicit-initial
// rules).
func (n *Node) value(k core.RegisterID) core.VersionedValue { return n.regs.Value(k, n.active) }

func (n *Node) merge(k core.RegisterID, v core.VersionedValue) bool {
	return n.regs.Merge(k, v, n.active)
}

// Start implements core.Node: bootstrap nodes are active at once; others
// run the join operation of Figure 1.
func (n *Node) Start() {
	if n.active {
		n.env.MarkActive()
		return
	}
	n.startJoin()
}

// startJoin is operation join(i), Figure 1 lines 01-12.
func (n *Node) startJoin() {
	n.joining = true
	// Line 01: initialization happened in New (regs empty, sets empty).
	preWait := n.env.Delta()
	if n.opts.SkipInitialWait {
		preWait = 0
	}
	// Line 02: wait(δ). A write concurrent with the start of this join is
	// guaranteed to have reached us by the end of the wait (its broadcast
	// happened before we entered only if it also terminates before we
	// finish waiting — see Figure 3b).
	n.env.After(preWait, func() {
		// Lines 04-06: broadcast INQUIRY(i) and wait 2δ (the broadcast
		// dissemination bound plus the point-to-point reply bound). This
		// is the process's one and only join inquiry, whatever number of
		// registers the namespace holds.
		n.stats.JoinInquiries++
		n.env.Broadcast(n.out.Inquiry(core.InquiryMsg{From: n.env.ID(), Op: core.NoOp}))
		n.env.After(2*n.env.Delta(), n.completeJoin)
	})
}

// completeJoin is Figure 1 lines 07-12. Reply values were merged on
// arrival (per key), so only the activation and deferred replies remain.
func (n *Node) completeJoin() {
	if !n.joining {
		return
	}
	n.joining = false
	// Line 10: become active.
	n.active = true
	// Line 11: answer inquiries deferred while we were joining — each
	// answer carries our full register space.
	for _, j := range n.replyTo {
		n.env.Send(j, n.out.Reply(n.snapshotReply()))
	}
	n.replyTo = nil
	n.replyToSeen = make(map[core.ProcessID]bool)
	// Line 12: return ok.
	n.env.MarkActive()
}

// snapshotReply builds a REPLY carrying this node's entire register space
// (see core.RegStore.SnapshotReply), answering a join inquiry.
func (n *Node) snapshotReply() core.ReplyMsg {
	return n.regs.SnapshotReply(n.env.ID(), core.NoOp, n.active, nil)
}

// Active implements core.Node.
func (n *Node) Active() bool { return n.active }

// Snapshot implements core.Node (key 0's local copy).
func (n *Node) Snapshot() core.VersionedValue { return n.value(core.DefaultRegister) }

// Store implements core.Stored.
func (n *Node) Store() *core.RegStore { return n.regs }

// Stats returns a copy of this node's counters.
func (n *Node) Stats() Stats { return n.stats }

// Read implements core.Ops — operation read(), Figure 2: the read is
// fast, returning the local copy of the key with no communication and no
// wait, so done runs before Read returns. Sharded, a process outside the
// key's group, where its WRITEs never land, refuses with ErrUnroutable.
func (n *Node) Read(k core.RegisterID, done func(core.VersionedValue, error)) error {
	if !n.active {
		return core.ErrNotActive
	}
	if v := placement.Of(n.env); v != nil && !v.IsReplica(k, n.env.ID()) {
		return core.ErrUnroutable
	}
	n.stats.Reads++
	done(n.value(k), nil)
	return nil
}

// Write implements core.Ops — operation write(v), Figure 2 lines 01-02,
// on one key. done receives the exact ⟨v, sn⟩ this write stored when the
// write returns ok. Writes may be in flight concurrently on this node —
// across keys and pipelined on this key (each is its own op-table entry
// with its own δ timer); the paper's no-concurrent-writes discipline
// applies per key across nodes.
func (n *Node) Write(k core.RegisterID, v core.Value, done func(core.VersionedValue, error)) error {
	if !n.active {
		return core.ErrNotActive
	}
	if n.ops.Full() {
		return core.ErrOpInProgress
	}
	id, o := n.ops.Begin()
	n.stats.Writes++
	// Line 01: sn_w := sn_w + 1; register := v; broadcast WRITE(v, sn_w).
	// The local copy advances NOW, so a pipelined successor write on this
	// key builds on this sequence number: invocation order = sn order.
	next := core.VersionedValue{Val: v, SN: n.value(k).SN + 1}
	n.regs.Store(k, next)
	o.stored, o.done = next, done
	// Sharded runtimes scope the dissemination to the key's replica
	// group (R sends instead of a full broadcast — the capacity dividend);
	// unsharded ones broadcast exactly as Figure 2 prescribes.
	placement.ScopedBroadcast(n.env, k, n.out.Write(core.WriteMsg{From: n.env.ID(), Value: next, Reg: k, Op: id}))
	// Line 02: wait(δ); return ok. After δ every process present at the
	// broadcast that has not left holds the value. Each write waits on its
	// OWN timer: the waits overlap, which is the pipelining dividend.
	n.wait(id)
	n.env.After(n.env.Delta(), n.finishOldest)
	return nil
}

// wait queues a write's OpID behind the writes already waiting. The
// queue's array is reused: its free front is reclaimed before it grows.
func (n *Node) wait(id core.OpID) {
	if n.head > 0 && len(n.waiting) == cap(n.waiting) {
		n.waiting = n.waiting[:copy(n.waiting, n.waiting[n.head:])]
		n.head = 0
	}
	n.waiting = append(n.waiting, id)
}

// finishWrite completes the oldest waiting write, whose δ just elapsed:
// it reclaims the write's op-table entry and runs its callback.
func (n *Node) finishWrite() {
	id := n.waiting[n.head]
	if n.head++; n.head == len(n.waiting) {
		n.waiting, n.head = n.waiting[:0], 0
	}
	o, _ := n.ops.Get(id)
	done, stored := o.done, o.stored
	n.ops.Finish(id)
	done(stored, nil)
}

// PendingOps implements core.OpAccountant.
func (n *Node) PendingOps() int { return n.ops.Len() }

// Deliver implements core.Node, dispatching the message handlers of
// Figures 1 and 2.
func (n *Node) Deliver(from core.ProcessID, m core.Message) {
	switch msg := m.(type) {
	case *core.InquiryMsg:
		n.handleInquiry(*msg)
	case *core.ReplyMsg:
		n.handleReply(*msg)
	case *core.WriteMsg:
		n.handleWrite(*msg)
	default:
		// Other kinds belong to the eventually synchronous protocol; a
		// mixed deployment is a configuration bug we surface loudly in
		// simulation rather than mask.
		panic("syncreg: unexpected message kind " + m.Kind().String())
	}
}

// handleInquiry is Figure 1 lines 13-16.
func (n *Node) handleInquiry(m core.InquiryMsg) {
	if n.active {
		// Line 14: active processes answer immediately, with their whole
		// register space in one message.
		n.stats.InquiriesServed++
		n.env.Send(m.From, n.out.Reply(n.snapshotReply()))
		return
	}
	// Line 15: postpone the answer until our own join completes.
	n.stats.InquiriesDelayed++
	if !n.replyToSeen[m.From] {
		n.replyToSeen[m.From] = true
		n.replyTo = append(n.replyTo, m.From)
	}
}

// handleReply is Figure 1 line 17, merged eagerly per key: keeping only
// the per-key maximum is equivalent to the paper's replies set because
// the line 07 fold is a max anyway. Replies landing after the inquiry
// window closed are ignored, exactly as the seed's set was discarded at
// join completion — after the join, only WRITEs mutate register state.
func (n *Node) handleReply(m core.ReplyMsg) {
	if !n.joining {
		return
	}
	m.Entries(func(k core.RegisterID, v core.VersionedValue) {
		n.merge(k, v)
	})
}

// handleWrite is Figure 2 lines 03-04 — runs at any process, active or
// joining (a joining process is in listening mode and applies writes).
func (n *Node) handleWrite(m core.WriteMsg) {
	if !n.merge(m.Reg, m.Value) {
		n.stats.StaleWritesSeen++
	}
}
