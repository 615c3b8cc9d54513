// Package shard turns any register protocol into a SHARDED one: a
// placement-aware wrapper node that admits each key's writes only at its
// shard's primary, holds operations back while their shard's state is
// moving, and runs the shard handoff state exchange when membership
// changes move shards between nodes.
//
// # Division of labor
//
// Sharding has three parts, and this package owns exactly one of them:
//
//   - internal/placement computes WHO replicates each shard (consistent
//     hashing over the membership; runtimes rebuild the view on every
//     membership change and hand it to both the protocols, via
//     placement.Placed on their Env, and to this wrapper, via
//     placement.Aware).
//   - The protocol engines (syncreg/esyncreg/abd) scope their
//     per-register traffic and quorums to the replica group themselves
//     (placement.ScopedBroadcast / placement.OpScope): a WRITE for a key
//     reaches R nodes, not n, and its quorum is a majority of R.
//   - This wrapper decides WHERE a client write may run, holds operations
//     back while their shard's state is moving, and moves shard state
//     when placement changes.
//
// # Routing
//
// A read of key k runs the inner engine's own read where it is entered,
// queued behind a pending handoff of k's shard. The engines scope it to
// k's group: a quorum read (esyncreg, abd) at a non-replica asks the
// group, and the synchronous protocol's local read, valid only where k's
// WRITEs land, fails there with core.ErrUnroutable.
//
// A write of key k enters at the shard's PRIMARY (the group's
// first-priority member), because sequence-number assignment for a key
// must stay in one process's hands at a time — the same per-key
// single-writer discipline the paper's protocols assume, now enforced per
// shard. Write at any other node fails at invocation with
// core.ErrUnroutable (not applied, retry-safe), and so does a queued
// write at a node that is no longer primary when it runs, rather than
// minting a conflicting sequence number. Routing is the caller's job (see
// placement.View.Route). A wire client's operation reaches the wrapper as
// the same Read or Write: the transport invokes it and answers the client.
//
// # Handoff
//
// When a view change makes this node a replica of a shard it did not
// hold, or the primary of a shard another process was primary of, the
// shard is PENDING: operations on it queue while the wrapper
// asks the shard's previous and current replicas (the donors) for their
// state — INQUIRY tagged core.HandoffOp(shard), answered by the shard's
// slice of the donor's snapshot REPLY (core.RegStore.SnapshotReply, the
// builder a join's replies use), intercepted by the donor's wrapper so it
// works identically over every protocol. The snapshot's entries for
// pending shards are merged into the inner node's store
// (core.RegStore.Merge, monotone per key — always safe), and nothing is
// sent back: state moves, the protocol sees no messages. An inner node
// must therefore expose its store (core.Stored); New panics on one that
// does not.
// The shard becomes ready once a majority of its donors answered: any
// completed write on the shard reached a majority of the old group, and
// majorities intersect, so the freshest value is in the merged state.
// Donors that die mid-handoff are dropped from the requirement as the
// membership view catches up (each retry round recomputes the donor set
// against current members, and after a few silent rounds the wrapper
// accepts any single answer rather than stalling forever — a liveness/
// completeness trade documented in ARCHITECTURE.md).
//
// A joiner owns nothing until its join returns (views count active
// processes); then it runs the same handoff for every shard it owns, after
// activationWaitDeltas: the paper's join INQUIRY collects a majority of
// the WHOLE system, which no longer necessarily intersects a per-shard
// write quorum once R < n — the per-shard handoff restores exactly that
// intersection. Bootstrap processes skip it (they hold the initial state
// by definition).
package shard

import (
	"maps"
	"slices"

	"churnreg/internal/core"
	"churnreg/internal/placement"
)

// Handoff tunables (retry rounds are in δ, so one set of constants serves
// both the synchronous and quorum protocols).
const (
	// handoffRetryDeltas spaces handoff re-inquiry rounds.
	handoffRetryDeltas = 3
	// handoffRelaxAfter is the number of silent retry rounds after which
	// a single donor answer marks the shard ready (donors presumed dead
	// but not yet evicted from the membership view).
	handoffRelaxAfter = 3
	// activationWaitDeltas delays the first handoff round of a shard gained
	// at activation until WRITEs sent under the previous view have landed:
	// δ in the simulator, 2δ over TCP (ARCHITECTURE.md §4).
	activationWaitDeltas = 2
)

// shardState tracks one owned shard: ready to serve, or pending handoff.
type shardState struct {
	ready  bool
	donors []core.ProcessID
	got    map[core.ProcessID]bool
	rounds int
	// queue holds operations blocked on this shard becoming ready;
	// flushed in arrival order.
	queue []func()
}

// Node wraps an inner protocol node with shard routing and handoff. It
// is driven by the same single-threaded runtime contract as every
// protocol node — no locks.
type Node struct {
	env   core.Env
	inner core.Node
	// ops and store are inner's operations and register store: every
	// protocol node the wrapper takes implements core.Ops and core.Stored.
	ops   core.Ops
	store *core.RegStore

	// view is the latest placement this node was told about; nil until
	// the runtime pushes one (the wrapper delegates everything until
	// then, so an unsharded runtime pays nothing). Runtimes hand views
	// over in order (placement.Aware), so the latest is the newest.
	view *placement.View
	// bootstrap marks one of the initial processes: its first view needs
	// no handoff (it holds the initial state by definition).
	bootstrap bool

	// shards holds state for every owned shard.
	shards map[int]*shardState
	// out holds the records the wrapper sends its handoff messages from.
	out core.Outbox

	stats Stats
}

// Stats counts wrapper activity at this node.
type Stats struct {
	LocalWrites      uint64
	HandoffsStarted  uint64 // shards that entered pending state
	HandoffsComplete uint64
	HandoffSnapshots uint64 // donor snapshots merged
}

// Factory wraps a protocol factory: every node the runtime spawns is a
// sharding wrapper around the inner protocol node.
func Factory(inner core.NodeFactory) core.NodeFactory {
	return func(env core.Env, sc core.SpawnContext) core.Node {
		return New(env, sc, inner)
	}
}

// New builds a wrapper around inner's node for this process. The inner
// node must implement core.Stored: the handoff moves state through its
// store.
func New(env core.Env, sc core.SpawnContext, inner core.NodeFactory) *Node {
	in := inner(env, sc)
	return &Node{
		env:       env,
		inner:     in,
		ops:       in.(core.Ops),
		store:     in.(core.Stored).Store(),
		bootstrap: sc.Bootstrap,
		shards:    make(map[int]*shardState),
	}
}

// Inner exposes the wrapped protocol node (stats, tests).
func (n *Node) Inner() core.Node { return n.inner }

// Stats returns a copy of the wrapper's counters.
func (n *Node) Stats() Stats { return n.stats }

// Compile-time interface checks.
var (
	_ core.Node         = (*Node)(nil)
	_ core.Ops          = (*Node)(nil)
	_ core.Stored       = (*Node)(nil)
	_ core.OpAccountant = (*Node)(nil)
	_ placement.Aware   = (*Node)(nil)
)

// ---- core.Node ----

// Start implements core.Node.
func (n *Node) Start() { n.inner.Start() }

// Active implements core.Node.
func (n *Node) Active() bool { return n.inner.Active() }

// Snapshot implements core.Node.
func (n *Node) Snapshot() core.VersionedValue { return n.inner.Snapshot() }

// Deliver implements core.Node: handoff traffic is consumed here;
// everything else flows to the inner protocol.
func (n *Node) Deliver(from core.ProcessID, m core.Message) {
	switch msg := m.(type) {
	case *core.InquiryMsg:
		if s, ok := core.HandoffShard(msg.Op); ok {
			n.handleHandoffInquiry(*msg, s)
			return
		}
	case *core.ReplyMsg:
		if s, ok := core.HandoffShard(msg.Op); ok {
			n.handleHandoffReply(*msg, s)
			return
		}
	}
	n.inner.Deliver(from, m)
}

// ---- delegation ----

// Store implements core.Stored: the inner node's store.
func (n *Node) Store() *core.RegStore { return n.store }

// ReadPathCounts implements core.ReadPathCounter by delegation: the
// wrapper adds no read round-trips of its own, so the inner protocol's
// fast/slow split is the node's. Zero for protocols without the counter.
func (n *Node) ReadPathCounts() (fast, slow uint64) {
	if c, ok := n.inner.(core.ReadPathCounter); ok {
		return c.ReadPathCounts()
	}
	return 0, 0
}

// PendingOps implements core.OpAccountant: the inner table plus queued
// (shard-blocked) operations.
func (n *Node) PendingOps() int {
	total := 0
	if a, ok := n.inner.(core.OpAccountant); ok {
		total = a.PendingOps()
	}
	for _, st := range n.shards {
		total += len(st.queue)
	}
	return total
}

// ---- placement ----

// PlacementChanged implements placement.Aware: adopt the new view,
// start handoff for gained shards and for held shards whose primacy this
// node gained, drop state for lost ones.
func (n *Node) PlacementChanged(view *placement.View) {
	old := n.view
	first := old == nil
	n.view = view
	// Shards are visited in ascending order, so the messages this sends
	// leave in the same order on every run of a seeded simulation.
	self := n.env.ID()
	owned := view.OwnedShards(self)
	wait := activationWaitDeltas * n.env.Delta() // gains on the first view that counts a joiner
	if !first && slices.Contains(old.Members(), self) {
		wait = 0
	}
	// Lost shards: re-dispatch anything queued on them (reads run the
	// engine's read as at any non-replica; writes check again and are
	// refused).
	for _, s := range slices.Sorted(maps.Keys(n.shards)) {
		if st := n.shards[s]; !slices.Contains(owned, s) {
			q := st.queue
			st.queue = nil
			delete(n.shards, s)
			for _, fn := range q {
				fn()
			}
		}
	}
	for _, s := range owned {
		st := n.shards[s]
		// A held shard stays as it is, unless this node just became its
		// primary: then it is handed off below as if gained.
		if st != nil && !(st.ready && n.gainsPrimacy(old, view, s)) {
			if !st.ready {
				// Pending handoff continues; refresh the donor set
				// against the new view so dead donors stop being
				// required.
				st.donors = placement.Donors(old, view, s, self)
				n.checkHandoffReady(s, st)
			}
			continue
		}
		st = &shardState{}
		n.shards[s] = st
		if first && n.bootstrap {
			// Bootstrap population: the initial state is already here.
			st.ready = true
			continue
		}
		st.donors = placement.Donors(old, view, s, self)
		st.got = make(map[core.ProcessID]bool)
		if len(st.donors) == 0 {
			// Nobody to ask (first process in, or every holder gone):
			// serve with what we have.
			st.ready = true
			continue
		}
		n.stats.HandoffsStarted++
		n.env.After(wait, func() {
			if n.shards[s] == st && !st.ready { // not lost or ready meanwhile
				n.sendHandoffInquiries(s, st)
				n.scheduleHandoffRetry(s, st)
			}
		})
	}
}

// gainsPrimacy reports whether shard s, which this node holds, has it as
// primary in view and had another process in old: the new primary must
// learn the shard's state before it mints a sequence number, so the shard
// is handed off as if gained. A held shard was owned in old, so old is
// not a first view and both groups name this node.
func (n *Node) gainsPrimacy(old, view *placement.View, s int) bool {
	self := n.env.ID()
	return view.GroupFor(s)[0] == self && old.GroupFor(s)[0] != self
}

// Placement returns the wrapper's current view (tests).
func (n *Node) Placement() *placement.View { return n.view }

func (n *Node) sendHandoffInquiries(s int, st *shardState) {
	for _, d := range st.donors {
		if !st.got[d] {
			n.env.Send(d, n.out.Inquiry(core.InquiryMsg{From: n.env.ID(), Op: core.HandoffOp(s)}))
		}
	}
}

// scheduleHandoffRetry arms one retry round for the pending shard. The
// timer is bound to THIS shardState by pointer identity: if the shard
// is lost and later regained, the new state starts its own chain and
// the stale timer dies — otherwise two chains would double-count silent
// rounds and reach the single-donor relaxation early.
func (n *Node) scheduleHandoffRetry(s int, st *shardState) {
	n.env.After(handoffRetryDeltas*n.env.Delta()+1, func() {
		if n.shards[s] != st || st.ready {
			return
		}
		st.rounds++
		if n.view != nil {
			st.donors = placement.Donors(nil, n.view, s, n.env.ID())
		}
		if n.checkHandoffReady(s, st) {
			return
		}
		n.sendHandoffInquiries(s, st)
		n.scheduleHandoffRetry(s, st)
	})
}

// handoffNeed returns how many donor answers shard s still requires: a
// majority of its (live) donors, relaxed to one answer after several
// silent rounds.
func (st *shardState) handoffNeed() int {
	need := len(st.donors)/2 + 1
	if st.rounds >= handoffRelaxAfter && need > 1 {
		need = 1
	}
	return need
}

// checkHandoffReady marks the shard ready once enough donors answered
// (or none remain to ask), flushing its queue. Reports readiness.
func (n *Node) checkHandoffReady(s int, st *shardState) bool {
	if st.ready {
		return true
	}
	answered := 0
	for _, d := range st.donors {
		if st.got[d] {
			answered++
		}
	}
	if len(st.donors) > 0 && answered < st.handoffNeed() {
		return false
	}
	st.ready = true
	st.got = nil
	n.stats.HandoffsComplete++
	q := st.queue
	st.queue = nil
	for _, fn := range q {
		fn()
	}
	return true
}

// handleHandoffInquiry answers a gaining node's state request with a
// snapshot of the inner node's store for the REQUESTED shard (m.Op's
// shard; shard counts are deployment constants, so the donor's own view
// computes the same ShardOf) — the join's snapshot REPLY, echoing m.Op,
// filtered; a donor is in the requester's view, so active. Filtering at
// the donor keeps handoff traffic proportional to the keys that moved,
// not to the whole keyspace; without a view yet, the full snapshot goes
// out and the requester filters instead.
func (n *Node) handleHandoffInquiry(m core.InquiryMsg, shard int) {
	var inShard func(core.RegisterID) bool
	if n.view != nil {
		inShard = func(k core.RegisterID) bool { return n.view.ShardOf(k) == shard }
	}
	n.env.Send(m.From, n.out.Reply(n.store.SnapshotReply(n.env.ID(), m.Op, true, inShard)))
}

// handleHandoffReply merges a donor's snapshot into the inner node's
// store — the monotone per-key merge the join's replies use, as an active
// node's (only those own shards), and nothing is sent back — and
// advances the shard's readiness.
func (n *Node) handleHandoffReply(m core.ReplyMsg, s int) {
	st := n.shards[s]
	if st == nil || st.ready {
		return
	}
	n.stats.HandoffSnapshots++
	m.Entries(func(k core.RegisterID, v core.VersionedValue) {
		if v.IsBottom() {
			return
		}
		if n.view != nil && n.view.ShardOf(k) != s && !n.pendingShard(n.view.ShardOf(k)) {
			// Keep the merge to shards this node is (or is becoming) a
			// replica of — storage hygiene, not correctness.
			return
		}
		n.store.Merge(k, v, true)
	})
	st.got[m.From] = true
	n.checkHandoffReady(s, st)
}

// pendingShard reports whether s is owned and still pending handoff.
func (n *Node) pendingShard(s int) bool {
	st := n.shards[s]
	return st != nil && !st.ready
}

// ---- client operations ----

// Read implements core.Ops: the inner engine's read, queued behind a
// pending handoff of the key's shard (see Routing in the package
// comment). A queued read's invocation error arrives through done.
func (n *Node) Read(reg core.RegisterID, done func(core.VersionedValue, error)) error {
	if n.view != nil {
		if shard := n.view.ShardOf(reg); n.pendingShard(shard) {
			n.queueOnShard(shard, func() {
				if err := n.Read(reg, done); err != nil {
					done(core.Bottom(), err)
				}
			})
			return nil
		}
	}
	return n.ops.Read(reg, done)
}

// ReadKey is Read with a routing failure reported as ⊥; only bench/layers
// calls it, until it moves to Read.
func (n *Node) ReadKey(reg core.RegisterID, done func(core.VersionedValue)) error {
	return n.Read(reg, func(v core.VersionedValue, err error) {
		if err != nil {
			v = core.Bottom()
		}
		if done != nil {
			done(v)
		}
	})
}

// Write implements core.Ops. Sharded, a write enters only at its key's
// primary: at any other node the invocation fails with
// core.ErrUnroutable, the write is not applied and done never runs.
func (n *Node) Write(reg core.RegisterID, v core.Value, done func(core.VersionedValue, error)) error {
	if n.view == nil {
		return n.ops.Write(reg, v, done)
	}
	if !n.isPrimary(reg) {
		return core.ErrUnroutable
	}
	n.dispatchWrite(reg, v, done)
	return nil
}

// WriteKeySN is Write with a routing failure reported as ⊥ and done
// optional; only bench/layers calls it, until it moves to Write.
func (n *Node) WriteKeySN(reg core.RegisterID, v core.Value, done func(core.VersionedValue)) error {
	return n.Write(reg, v, func(vv core.VersionedValue, err error) {
		if err != nil {
			vv = core.Bottom()
		}
		if done != nil {
			done(vv)
		}
	})
}

// dispatchWrite serves a write at the key's primary, queued behind a
// pending handoff; a queued write checks again that it is at the primary.
func (n *Node) dispatchWrite(reg core.RegisterID, v core.Value, done func(core.VersionedValue, error)) {
	if !n.isPrimary(reg) {
		done(core.Bottom(), core.ErrUnroutable)
		return
	}
	if shard := n.view.ShardOf(reg); n.pendingShard(shard) {
		n.queueOnShard(shard, func() { n.dispatchWrite(reg, v, done) })
		return
	}
	n.stats.LocalWrites++
	if err := n.ops.Write(reg, v, done); err != nil {
		done(core.Bottom(), err)
	}
}

// isPrimary reports whether this node is reg's primary in its view.
func (n *Node) isPrimary(reg core.RegisterID) bool {
	if n.view == nil {
		return false
	}
	g := n.view.Group(reg)
	return len(g) > 0 && g[0] == n.env.ID()
}

// queueOnShard parks an operation until the shard's handoff completes;
// callers check pendingShard first.
func (n *Node) queueOnShard(s int, fn func()) {
	st := n.shards[s]
	st.queue = append(st.queue, fn)
}
