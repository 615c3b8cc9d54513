// Package abd implements a single-writer majority-quorum register in the
// style of Attiya, Bar-Noy and Dolev ("Sharing Memory Robustly in
// Message-Passing Systems", JACM 1995) — the static-system construction the
// paper cites as [3] and contrasts its dynamic protocols against — over
// the keyed register namespace.
//
// The protocol assumes a fixed membership of n processes of which a
// majority never fails:
//
//   - write(k, v): increment the writer's sequence number for key k, send
//     WRITE to all, wait for ⌊n/2⌋+1 ACKs naming k.
//   - read(k): send READ to all, wait for ⌊n/2⌋+1 REPLYs, and adopt the
//     value with the highest sequence number. If every reply in the
//     quorum reported the SAME ⟨v, sn⟩ the read returns immediately —
//     the one-round fast path of Mostéfaoui & Raynal (arXiv:1601.04820):
//     the whole quorum already stores v, so any later read's quorum
//     intersects it and returns ≥ v, and no write-back is needed. When
//     the replies disagree, the freshest value is written back to a
//     quorum (an ordinary WRITE round tagged with the read's OpID)
//     before the read returns — the classic phase 2 that makes ABD reads
//     atomic (no new/old inversion).
//
// Stats separates the two read paths (FastReads vs SlowReads), and the
// transport surfaces them on regserve /metrics: under read-heavy loads
// with a quiescent writer almost every read should take the fast path.
//
// There is no join operation — the protocol predates dynamic membership.
// When this package is run under churn (experiments E4/E8 do this on
// purpose), replacement processes enter as passive replicas: they answer
// quorum queries with whatever state they have (initially ⊥) and apply the
// WRITEs they observe, which is the naive "just restart the process"
// deployment. The experiments show how regularity erodes as turnover
// replaces informed replicas with empty ones — the motivation for the
// paper's churn-aware joins.
//
// Concurrency mirrors the dynamic protocols: every client operation is an
// entry in one operation table keyed by core.OpID, so reads and writes may
// be in flight concurrently on one node — across keys and pipelined on a
// key. REPLYs and ACKs route by the OpID they echo: every WRITE an abd
// process receives is tagged (a client write's, or a slow read's
// write-back), and a shard handoff merges into the store without one, so
// an ACK that carries no OpID answers nothing and counts for nothing.
// Sequence numbers are assigned at invocation, so pipelined writes to one
// key carry increasing numbers in invocation order.
package abd

import (
	"churnreg/internal/core"
	"churnreg/internal/placement"
)

// op is one in-flight quorum operation.
type op struct {
	reg core.RegisterID

	// scope/quorum pin the quorum population at invocation: nil scope +
	// ⌊n/2⌋+1 unsharded, the key's replica group + a majority of it
	// sharded (placement.OpScope).
	scope  []core.ProcessID
	quorum int

	reading     bool
	readReplies map[core.ProcessID]core.VersionedValue
	readDone    func(core.VersionedValue, error)

	// Write-back round of a slow-path read (quorum replies disagreed):
	// wbVal is the adopted value being propagated; its ACKs route here by
	// the read's OpID.
	wb     bool
	wbVal  core.VersionedValue
	wbAcks map[core.ProcessID]bool

	writing   bool
	writeVal  core.VersionedValue
	writeAck  map[core.ProcessID]bool
	writeDone func(core.VersionedValue, error)
}

// Node is one process running the static ABD-style protocol.
type Node struct {
	env core.Env

	vals   *core.RegStore
	active bool // bootstrap processes only; replacements stay passive

	ops *core.OpTable[op]

	stats Stats
}

// Stats counts protocol activity at this node.
type Stats struct {
	Reads       uint64
	Writes      uint64
	RepliesSent uint64
	AcksSent    uint64
	BottomSent  uint64 // quorum replies carrying ⊥ (passive replacement answering empty)
	// FastReads counts reads whose quorum replies all agreed on one
	// ⟨v, sn⟩ and therefore finished in ONE round; SlowReads counts reads
	// that saw disagreement and paid the write-back round. FastReads +
	// SlowReads == completed reads.
	FastReads uint64
	SlowReads uint64
}

// New builds a node. Only bootstrap processes are usable endpoints; later
// processes are passive replicas (see the package comment).
func New(env core.Env, sc core.SpawnContext) *Node {
	n := &Node{
		env:  env,
		vals: core.NewRegStore(sc),
		ops:  core.NewOpTable[op](0),
	}
	n.active = sc.Bootstrap
	return n
}

// Factory returns a core.NodeFactory for the baseline.
func Factory() core.NodeFactory {
	return func(env core.Env, sc core.SpawnContext) core.Node {
		return New(env, sc)
	}
}

// Compile-time interface checks.
var (
	_ core.Node            = (*Node)(nil)
	_ core.Ops             = (*Node)(nil)
	_ core.Stored          = (*Node)(nil)
	_ core.OpAccountant    = (*Node)(nil)
	_ core.ReadPathCounter = (*Node)(nil)
)

func (n *Node) majority() int { return n.env.SystemSize()/2 + 1 }

// value and merge are per-key store accessors; passive replicas and
// unseen keys fall back to ⊥ / the implicit initial exactly like the
// dynamic protocols (see core.RegStore.Value).
func (n *Node) value(k core.RegisterID) core.VersionedValue { return n.vals.Value(k, n.active) }

func (n *Node) merge(k core.RegisterID, v core.VersionedValue) {
	n.vals.Merge(k, v, n.active)
}

// Start implements core.Node. Bootstrap processes are active; replacements
// have no join protocol to run and stay passive.
func (n *Node) Start() {
	if n.active {
		n.env.MarkActive()
	}
}

// Active implements core.Node.
func (n *Node) Active() bool { return n.active }

// Snapshot implements core.Node (key 0's local copy).
func (n *Node) Snapshot() core.VersionedValue { return n.value(core.DefaultRegister) }

// Store implements core.Stored.
func (n *Node) Store() *core.RegStore { return n.vals }

// PendingOps implements core.OpAccountant.
func (n *Node) PendingOps() int { return n.ops.Len() }

// ReadPathCounts implements core.ReadPathCounter: completed one-round
// fast-path reads vs write-back slow-path reads.
func (n *Node) ReadPathCounts() (fast, slow uint64) {
	return n.stats.FastReads, n.stats.SlowReads
}

// Stats returns a copy of this node's counters.
func (n *Node) Stats() Stats { return n.stats }

// Read implements core.Ops: query all, adopt the majority's freshest
// value for the key. Any number of reads may be in flight.
func (n *Node) Read(k core.RegisterID, done func(core.VersionedValue, error)) error {
	if !n.active {
		return core.ErrNotActive
	}
	if n.ops.Full() {
		return core.ErrOpInProgress
	}
	id, o := n.ops.Begin()
	n.stats.Reads++
	o.reg = k
	o.scope, o.quorum = placement.OpScope(n.env, k)
	o.reading = true
	o.readReplies = make(map[core.ProcessID]core.VersionedValue)
	o.readDone = done
	placement.ScopedBroadcast(n.env, k, core.ReadMsg{From: n.env.ID(), Reg: k, Op: id})
	return nil
}

func (n *Node) checkRead(id core.OpID, o *op) {
	if !o.reading || len(o.readReplies) < o.quorum {
		return
	}
	o.reading = false
	agreed := true
	var first, freshest core.VersionedValue
	got := false
	for _, v := range o.readReplies {
		n.merge(o.reg, v)
		if !got {
			first, freshest, got = v, v, true
			continue
		}
		if v != first {
			agreed = false
		}
		if v.MoreRecent(freshest) {
			freshest = v
		}
	}
	if agreed {
		// Fast path: the whole quorum already stores ⟨v, sn⟩, so every
		// later read's quorum intersects a node at ≥ sn — atomicity holds
		// with no write-back (arXiv:1601.04820).
		n.stats.FastReads++
		n.ops.Finish(id)
		o.readDone(freshest, nil)
		return
	}
	// Slow path: before returning the freshest value, propagate it to a
	// quorum (phase 2). Until a quorum stores it, a later read could miss
	// it and return an older value — the new/old inversion.
	n.stats.SlowReads++
	o.wb = true
	o.wbVal = freshest
	o.wbAcks = make(map[core.ProcessID]bool)
	placement.ScopedBroadcast(n.env, o.reg, core.WriteMsg{From: n.env.ID(), Value: freshest, Reg: o.reg, Op: id})
}

func (n *Node) checkWriteBack(id core.OpID, o *op) {
	if !o.wb || len(o.wbAcks) < o.quorum {
		return
	}
	n.ops.Finish(id)
	o.readDone(o.wbVal, nil)
}

// Write implements core.Ops. Single-writer: the writer's own sequence
// number for the key is authoritative, so no read phase is needed; it is
// assigned at invocation, so pipelined writes to one key from this node
// number themselves in invocation order. done receives the exact ⟨v, sn⟩
// stored.
func (n *Node) Write(k core.RegisterID, v core.Value, done func(core.VersionedValue, error)) error {
	if !n.active {
		return core.ErrNotActive
	}
	if n.ops.Full() {
		return core.ErrOpInProgress
	}
	id, o := n.ops.Begin()
	n.stats.Writes++
	next := core.VersionedValue{Val: v, SN: n.value(k).SN + 1}
	n.vals.Store(k, next)
	o.reg = k
	o.scope, o.quorum = placement.OpScope(n.env, k)
	o.writing = true
	o.writeVal = next
	o.writeAck = make(map[core.ProcessID]bool)
	o.writeDone = done
	placement.ScopedBroadcast(n.env, k, core.WriteMsg{From: n.env.ID(), Value: next, Reg: k, Op: id})
	return nil
}

func (n *Node) checkWrite(id core.OpID, o *op) {
	if !o.writing || len(o.writeAck) < o.quorum {
		return
	}
	n.ops.Finish(id)
	o.writeDone(o.writeVal, nil)
}

// Deliver implements core.Node.
func (n *Node) Deliver(from core.ProcessID, m core.Message) {
	switch msg := m.(type) {
	case core.ReadMsg:
		// Every replica answers — including passive replacements, which
		// may only have ⊥. That is the naive-membership failure mode the
		// experiments measure.
		v := n.value(msg.Reg)
		if v.IsBottom() {
			n.stats.BottomSent++
		}
		n.stats.RepliesSent++
		n.env.Send(msg.From, core.ReplyMsg{From: n.env.ID(), Value: v, Reg: msg.Reg, Op: msg.Op})
	case core.ReplyMsg:
		o, ok := n.ops.Get(msg.Op)
		if !ok || !o.reading || o.reg != msg.Reg {
			return // stale: the read completed (or never was)
		}
		if !placement.InScope(o.scope, msg.From) {
			return // sharded: only replica-group replies feed the quorum
		}
		if cur, ok := o.readReplies[msg.From]; !ok || msg.Value.MoreRecent(cur) {
			o.readReplies[msg.From] = msg.Value
		}
		n.checkRead(msg.Op, o)
	case core.WriteMsg:
		n.merge(msg.Reg, msg.Value)
		n.stats.AcksSent++
		n.env.Send(msg.From, core.AckMsg{From: n.env.ID(), SN: msg.Value.SN, Reg: msg.Reg, Op: msg.Op})
	case core.AckMsg:
		// An ACK feeds the operation whose OpID it echoes: a write, or a
		// slow-path read's write-back round. One that names no open
		// operation (NoOp included) is stale.
		o, ok := n.ops.Get(msg.Op)
		if !ok || o.reg != msg.Reg {
			return
		}
		if !placement.InScope(o.scope, msg.From) {
			return // sharded: only replica-group acks feed the quorum
		}
		switch {
		case o.writing && o.writeVal.SN == msg.SN:
			o.writeAck[msg.From] = true
			n.checkWrite(msg.Op, o)
		case o.wb && o.wbVal.SN == msg.SN:
			o.wbAcks[msg.From] = true
			n.checkWriteBack(msg.Op, o)
		}
	default:
		panic("abd: unexpected message kind " + m.Kind().String())
	}
}
