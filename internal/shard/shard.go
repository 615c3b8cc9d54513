// Package shard turns any register protocol into a SHARDED one: a
// placement-aware wrapper node that serves each key's operations only
// where its shard's replica group says, relays reads entered at a
// non-replica, answers operations forwarded to it, and runs the shard
// handoff state exchange when membership changes move shards between
// nodes.
//
// # Division of labor
//
// Sharding has three parts, and this package owns exactly one of them:
//
//   - internal/placement computes WHO replicates each shard (consistent
//     hashing over the membership; runtimes rebuild the view on every
//     membership change and hand it to both the protocols, via
//     core.Placed on their Env, and to this wrapper, via
//     core.PlacementAware).
//   - The protocol engines (syncreg/esyncreg/abd/multiwriter) scope their
//     per-register traffic and quorums to the replica group themselves
//     (core.ScopedBroadcast / core.OpScope): a WRITE for a key reaches R
//     nodes, not n, and its quorum is a majority of R.
//   - This wrapper decides WHERE a client operation may run, keeps
//     non-replicas from serving keys they do not hold, and moves shard
//     state when placement changes.
//
// # Routing
//
// A read of key k is served locally when this node is in k's replica
// group (the synchronous protocol's fast local read stays fast, now on
// 1/S of the keyspace per shard owned); otherwise it is forwarded —
// FORWARD(op, k) to a group member, FORWARDED(op, value) back, routed by
// the wrapper's own operation table exactly like every other
// request/reply pair. Reads are idempotent, so a forward that goes
// unanswered (its target died) retries against the next group member.
//
// A write of key k is never relayed: it enters at the shard's PRIMARY
// (the group's first-priority member), because sequence-number
// assignment for a key must stay in one process's hands at a time — the
// same per-key single-writer discipline the paper's protocols assume,
// now enforced per shard. Write at any other node fails at invocation
// with core.ErrUnroutable (not applied, retry-safe), and a FORWARDed
// write at a node that is no longer primary is refused (WRONG_REPLICA)
// rather than minting a conflicting sequence number. Routing is the
// caller's job, by one rule: client.Client, SimCluster and NetCluster
// each call placement.View.Route under their own view, which sends a
// write to Group(k)[0] and a read to a replica. The read relay above
// serves only callers that pick a process themselves (ReadKeyAt at a
// non-replica) and the benchmark that measures it.
//
// # Handoff
//
// When a view change makes this node a replica of a shard it did not
// hold, the shard is PENDING: operations on it queue while the wrapper
// asks the shard's previous and current replicas (the donors) for their
// state — INQUIRY(HandoffReadSeq, shard) answered by a full snapshot
// REPLY, the same batched-snapshot machinery a join uses, intercepted by
// the donor's wrapper so it works identically over every protocol. The
// snapshot's entries for pending shards are replayed into the inner node
// as synthetic WRITE deliveries (monotone per-key merge — always safe).
// The shard becomes ready once a majority of its donors answered: any
// completed write on the shard reached a majority of the old group, and
// majorities intersect, so the freshest value is in the merged state.
// Donors that die mid-handoff are dropped from the requirement as the
// membership view catches up (each retry round recomputes the donor set
// against current members, and after a few silent rounds the wrapper
// accepts any single answer rather than stalling forever — a liveness/
// completeness trade documented in ARCHITECTURE.md).
//
// Nodes entering the system fresh (a join) run the same handoff for every
// shard they own on their first view: the paper's join INQUIRY collects a
// majority of the WHOLE system, which no longer necessarily intersects a
// per-shard write quorum once R < n — the per-shard handoff restores
// exactly that intersection. Bootstrap processes skip it (they hold the
// initial state by definition).
package shard

import (
	"churnreg/internal/core"
	"churnreg/internal/placement"
	"churnreg/internal/sim"
)

// Tunables (in ticks of the runtime's clock, scaled by δ so one set of
// constants serves both the synchronous and quorum protocols).
const (
	// fwdTimeoutDeltas: a relayed read unanswered for this many δ is
	// presumed lost and retried at the next group member.
	fwdTimeoutDeltas = 10
	// fwdTimeoutSlack is added on top, covering quorum round-trips that
	// are not δ-bounded (the eventually synchronous protocol).
	fwdTimeoutSlack = 50
	// maxFwdAttempts bounds a relayed read's attempts.
	maxFwdAttempts = 6
	// retryDelayTicks spaces retries after an explicit refusal.
	retryDelayTicks = 2
	// handoffRetryDeltas spaces handoff re-inquiry rounds.
	handoffRetryDeltas = 3
	// handoffRelaxAfter is the number of silent retry rounds after which
	// a single donor answer marks the shard ready (donors presumed dead
	// but not yet evicted from the membership view).
	handoffRelaxAfter = 3
)

// fwdOp is one relayed read awaiting its FORWARDED answer.
type fwdOp struct {
	reg      core.RegisterID
	attempts int
	done     func(core.VersionedValue, core.ProcessID, error)
}

// shardState tracks one owned shard: ready to serve, or pending handoff.
type shardState struct {
	ready  bool
	donors []core.ProcessID
	got    map[core.ProcessID]bool
	rounds int
	// queue holds operations (local client ops and forwarded serves)
	// blocked on this shard becoming ready; flushed in arrival order.
	queue []func()
}

// Node wraps an inner protocol node with shard routing and handoff. It
// is driven by the same single-threaded runtime contract as every
// protocol node — no locks.
type Node struct {
	env   core.Env
	inner core.Node
	// ops is inner's operations: every protocol node implements core.Ops.
	ops core.Ops

	// view is the latest placement this node was told about; nil until
	// the runtime pushes one (the wrapper delegates everything until
	// then, so an unsharded runtime pays nothing).
	view        core.PlacementView
	sawView     bool
	viewVersion uint64
	// bootstrap marks one of the initial processes: its first view needs
	// no handoff (it holds the initial state by definition).
	bootstrap bool

	// shards holds state for every owned shard.
	shards map[int]*shardState
	// fwd is the wrapper's own operation table for relayed reads.
	fwd *core.OpTable[fwdOp]

	stats Stats
}

// Stats counts wrapper activity at this node.
type Stats struct {
	LocalReads       uint64
	ForwardedReads   uint64
	LocalWrites      uint64
	ForwardsServed   uint64
	ForwardsRefused  uint64
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

// New builds a wrapper around inner's node for this process.
func New(env core.Env, sc core.SpawnContext, inner core.NodeFactory) *Node {
	in := inner(env, sc)
	return &Node{
		env:       env,
		inner:     in,
		ops:       in.(core.Ops),
		bootstrap: sc.Bootstrap,
		shards:    make(map[int]*shardState),
		fwd:       core.NewOpTable[fwdOp](0),
	}
}

// Inner exposes the wrapped protocol node (stats, tests).
func (n *Node) Inner() core.Node { return n.inner }

// Stats returns a copy of the wrapper's counters.
func (n *Node) Stats() Stats { return n.stats }

// Compile-time interface checks.
var (
	_ core.Node             = (*Node)(nil)
	_ core.Ops              = (*Node)(nil)
	_ core.KeyedSnapshotter = (*Node)(nil)
	_ core.OpAccountant     = (*Node)(nil)
	_ core.Joiner           = (*Node)(nil)
	_ core.PlacementAware   = (*Node)(nil)
)

// ---- core.Node ----

// Start implements core.Node.
func (n *Node) Start() { n.inner.Start() }

// Active implements core.Node.
func (n *Node) Active() bool { return n.inner.Active() }

// Snapshot implements core.Node.
func (n *Node) Snapshot() core.VersionedValue { return n.inner.Snapshot() }

// Deliver implements core.Node: wrapper traffic (forwards, handoff) is
// consumed here; everything else flows to the inner protocol.
func (n *Node) Deliver(from core.ProcessID, m core.Message) {
	switch msg := m.(type) {
	case core.ForwardMsg:
		n.handleForward(msg)
		return
	case core.ForwardedMsg:
		n.handleForwarded(msg)
		return
	case core.InquiryMsg:
		if msg.RSN == core.HandoffReadSeq {
			n.handleHandoffInquiry(msg)
			return
		}
	case core.ReplyMsg:
		if msg.RSN == core.HandoffReadSeq {
			n.handleHandoffReply(msg)
			return
		}
	}
	n.inner.Deliver(from, m)
}

// ---- delegation ----

// OnJoined implements core.Joiner, also flushing shard queues blocked on
// the join (operations gated only on activation, not handoff).
func (n *Node) OnJoined(done func()) {
	if j, ok := n.inner.(core.Joiner); ok {
		j.OnJoined(done)
		return
	}
	if done != nil && n.inner.Active() {
		done()
	}
}

// SnapshotKey implements core.KeyedSnapshotter.
func (n *Node) SnapshotKey(k core.RegisterID) core.VersionedValue {
	return core.SnapshotKey(n.inner, k)
}

// Keys implements core.KeyedSnapshotter.
func (n *Node) Keys() []core.RegisterID {
	if s, ok := n.inner.(core.KeyedSnapshotter); ok {
		return s.Keys()
	}
	return nil
}

// ReadPathCounts implements core.ReadPathCounter by delegation: the
// wrapper adds no read round-trips of its own, so the inner protocol's
// fast/slow split is the node's. Zero for protocols without the counter.
func (n *Node) ReadPathCounts() (fast, slow uint64) {
	if c, ok := n.inner.(core.ReadPathCounter); ok {
		return c.ReadPathCounts()
	}
	return 0, 0
}

// PendingOps implements core.OpAccountant: the inner table plus the
// wrapper's forwarding table plus queued (shard-blocked) operations.
func (n *Node) PendingOps() int {
	total := n.fwd.Len()
	if a, ok := n.inner.(core.OpAccountant); ok {
		total += a.PendingOps()
	}
	for _, st := range n.shards {
		total += len(st.queue)
	}
	return total
}

// ---- placement ----

// PlacementChanged implements core.PlacementAware: adopt the new view,
// start handoff for gained shards, drop state for lost ones. Views
// stamped with a version (placement.View.SetVersion) are applied in
// stamp order; a stale one — possible when a concurrent runtime posts
// views to the node loop asynchronously — is dropped.
func (n *Node) PlacementChanged(view core.PlacementView) {
	if vv, ok := view.(interface{ ViewVersion() uint64 }); ok {
		ver := vv.ViewVersion()
		if ver != 0 {
			if ver <= n.viewVersion {
				return
			}
			n.viewVersion = ver
		}
	}
	old := n.view
	first := !n.sawView
	n.view = view
	n.sawView = true
	if view == nil {
		return
	}
	self := n.env.ID()
	owned := make(map[int]bool)
	for s := 0; s < view.NumShards(); s++ {
		if containsID(view.GroupFor(s), self) {
			owned[s] = true
		}
	}
	// Lost shards: re-dispatch anything queued on them (reads relay now;
	// writes and FORWARDs check again and are refused).
	for s, st := range n.shards {
		if !owned[s] {
			q := st.queue
			st.queue = nil
			delete(n.shards, s)
			for _, fn := range q {
				fn()
			}
		}
	}
	for s := range owned {
		st := n.shards[s]
		if st != nil {
			if !st.ready {
				// Pending handoff continues; refresh the donor set
				// against the new view so dead donors stop being
				// required.
				st.donors = donorsFor(old, view, s, self)
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
		st.donors = donorsFor(old, view, s, self)
		st.got = make(map[core.ProcessID]bool)
		if len(st.donors) == 0 {
			// Nobody to ask (first process in, or every holder gone):
			// serve with what we have.
			st.ready = true
			continue
		}
		n.stats.HandoffsStarted++
		n.sendHandoffInquiries(s, st)
		n.scheduleHandoffRetry(s, st)
	}
}

// Placement returns the wrapper's current view (tests).
func (n *Node) Placement() core.PlacementView { return n.view }

// donorsFor computes the processes able to seed shard s: the union of
// the shard's groups under the old and new views, restricted to the new
// view's members, excluding self (placement.Donors).
func donorsFor(old, v core.PlacementView, s int, self core.ProcessID) []core.ProcessID {
	return placement.Donors(old, v, s, self)
}

func (n *Node) sendHandoffInquiries(s int, st *shardState) {
	for _, d := range st.donors {
		if !st.got[d] {
			n.env.Send(d, core.InquiryMsg{From: n.env.ID(), RSN: core.HandoffReadSeq, Op: core.OpID(s)})
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
			st.donors = donorsFor(nil, n.view, s, n.env.ID())
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
	if need > len(st.donors) {
		need = len(st.donors)
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
// snapshot of the inner node's copies for the REQUESTED shard (m.Op is
// the shard tag; shard counts are deployment constants, so the donor's
// own view computes the same ShardOf) — only when active (a joining
// donor's state is partial; the requester's retry rounds cover the
// silence). Filtering at the donor keeps handoff traffic proportional
// to the keys that moved, not to the whole keyspace; without a view
// yet, the full snapshot goes out and the requester filters instead.
func (n *Node) handleHandoffInquiry(m core.InquiryMsg) {
	if !n.inner.Active() {
		return
	}
	s, ok := n.inner.(core.KeyedSnapshotter)
	if !ok {
		return
	}
	shard := int(m.Op)
	inShard := func(k core.RegisterID) bool {
		return n.view == nil || n.view.ShardOf(k) == shard
	}
	reply := core.ReplyMsg{
		From:  n.env.ID(),
		Value: core.Bottom(),
		RSN:   core.HandoffReadSeq,
		Reg:   core.DefaultRegister,
		Op:    m.Op, // echoes the requester's shard tag
	}
	if inShard(core.DefaultRegister) {
		reply.Value = core.SnapshotKey(n.inner, core.DefaultRegister)
	}
	for _, k := range s.Keys() {
		if k == core.DefaultRegister || !inShard(k) {
			continue
		}
		reply.Rest = append(reply.Rest, core.KeyedValue{Reg: k, Value: s.SnapshotKey(k)})
	}
	n.env.Send(m.From, reply)
}

// handleHandoffReply merges a donor's snapshot into the inner node —
// synthetic WRITE deliveries, a monotone per-key merge every protocol
// already implements — and advances the shard's readiness.
func (n *Node) handleHandoffReply(m core.ReplyMsg) {
	s := int(m.Op)
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
		n.inner.Deliver(m.From, core.WriteMsg{From: m.From, Value: v, Reg: k, Op: core.NoOp})
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

// Read implements core.Ops: serve locally when this node replicates the
// key's shard, else forward to a group member. Sharded, the invocation
// only fails on backpressure (full forwarding table); every later
// outcome — including routing failure — arrives through done.
func (n *Node) Read(reg core.RegisterID, done func(core.VersionedValue, core.ProcessID, error)) error {
	if n.view == nil {
		return n.ops.Read(reg, done)
	}
	if n.fwd.Full() {
		return core.ErrOpInProgress
	}
	n.dispatchRead(reg, 0, done)
	return nil
}

// ReadKey is Read with a routing failure reported as ⊥. It is kept only
// because bench/layers calls it and the benchmark's directory is frozen;
// everything else calls Read.
func (n *Node) ReadKey(reg core.RegisterID, done func(core.VersionedValue)) error {
	return n.Read(reg, func(v core.VersionedValue, _ core.ProcessID, err error) {
		if err != nil {
			v = core.Bottom()
		}
		if done != nil {
			done(v)
		}
	})
}

// dispatchRead routes one read attempt. Runs on the node loop; never
// returns an error — outcomes flow through done.
func (n *Node) dispatchRead(reg core.RegisterID, attempt int, done func(core.VersionedValue, core.ProcessID, error)) {
	v := n.view
	if v == nil {
		if err := n.ops.Read(reg, done); err != nil {
			done(core.Bottom(), core.NoProcess, err)
		}
		return
	}
	g := v.Group(reg)
	if len(g) == 0 {
		done(core.Bottom(), core.NoProcess, core.ErrUnroutable)
		return
	}
	self := n.env.ID()
	shard := v.ShardOf(reg)
	if containsID(g, self) {
		if n.pendingShard(shard) {
			n.queueOnShard(shard, func() { n.dispatchRead(reg, attempt, done) })
			return
		}
		if n.inner.Active() {
			n.stats.LocalReads++
			if err := n.ops.Read(reg, done); err != nil {
				done(core.Bottom(), core.NoProcess, err)
			}
			return
		}
		// Not active yet: fall through and forward to another replica
		// (the joiner's clients should not wait out the whole join).
	}
	if attempt >= maxFwdAttempts {
		done(core.Bottom(), core.NoProcess, core.ErrUnroutable)
		return
	}
	// Rotate through the group so a dead primary does not blackhole
	// reads while eviction catches up.
	target := core.NoProcess
	for i := 0; i < len(g) && target == core.NoProcess; i++ {
		if t := g[(attempt+i)%len(g)]; t != self {
			target = t
		}
	}
	if target == core.NoProcess {
		done(core.Bottom(), core.NoProcess, core.ErrUnroutable)
		return
	}
	n.stats.ForwardedReads++
	id, o := n.fwd.Begin()
	*o = fwdOp{reg: reg, attempts: attempt, done: done}
	n.env.Send(target, core.ForwardMsg{From: self, Op: id, Reg: reg})
	n.armFwdTimer(id)
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
// optional. It is kept only because bench/layers calls it and the
// benchmark's directory is frozen; everything else calls Write.
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

// WriteBatch implements core.Ops. Sharded, a batch enters only where
// this node is every key's primary, else it fails with ErrUnroutable like
// Write. A batch within ONE ready shard keeps the inner protocol's batch
// (for the synchronous protocol one broadcast to that shard's group);
// any other is core.WriteEach, because one broadcast to the union of
// several shards' groups would store every key on every union member.
func (n *Node) WriteBatch(entries []core.KeyedWrite, done func([]core.KeyedValue, error)) error {
	if n.view == nil {
		return n.ops.WriteBatch(entries, done)
	}
	oneShard := len(entries) > 0
	for _, e := range entries {
		if !n.isPrimary(e.Reg) {
			return core.ErrUnroutable
		}
		oneShard = oneShard && n.view.ShardOf(e.Reg) == n.view.ShardOf(entries[0].Reg)
	}
	if !oneShard || n.pendingShard(n.view.ShardOf(entries[0].Reg)) {
		return core.WriteEach(n, entries, done)
	}
	return n.ops.WriteBatch(entries, done)
}

// queueOnShard parks an operation until the shard's handoff completes.
func (n *Node) queueOnShard(s int, fn func()) {
	st := n.shards[s]
	if st == nil || st.ready {
		fn()
		return
	}
	st.queue = append(st.queue, fn)
}

// ---- forwarding ----

func (n *Node) fwdTimeout() sim.Duration {
	return fwdTimeoutDeltas*n.env.Delta() + fwdTimeoutSlack
}

// armFwdTimer retries a relayed read that drew no answer at the next
// group member: reads are idempotent.
func (n *Node) armFwdTimer(id core.OpID) {
	n.env.After(n.fwdTimeout(), func() {
		o, ok := n.fwd.Get(id)
		if !ok {
			return
		}
		n.fwd.Finish(id)
		n.dispatchRead(o.reg, o.attempts+1, o.done)
	})
}

// handleForward serves (or refuses) an operation forwarded to this node
// — by a relaying peer with a staler view, or by an external client
// session routing directly (the wire client's operations arrive as
// FORWARDs from the transport's session pseudo-ids). With no view yet
// the node serves unconditionally: an unsharded system replicates every
// key everywhere, so there is no wrong replica to refuse from.
func (n *Node) handleForward(m core.ForwardMsg) {
	refuse := func(code core.ForwardCode) {
		n.stats.ForwardsRefused++
		n.env.Send(m.From, core.ForwardedMsg{From: n.env.ID(), Op: m.Op, Reg: m.Reg, Code: code})
	}
	v := n.view
	if v != nil {
		if !v.IsReplica(m.Reg, n.env.ID()) {
			refuse(core.ForwardWrongReplica)
			return
		}
		if m.IsWrite && v.Group(m.Reg)[0] != n.env.ID() {
			// Only the CURRENT primary assigns a key's sequence numbers; a
			// requester with a stale view must re-route, not split the
			// write stream across two nodes.
			refuse(core.ForwardWrongReplica)
			return
		}
		shard := v.ShardOf(m.Reg)
		if n.pendingShard(shard) {
			n.queueOnShard(shard, func() { n.handleForward(m) })
			return
		}
	}
	if !n.inner.Active() {
		refuse(core.ForwardNotActive)
		return
	}
	reply := func(vv core.VersionedValue) {
		n.stats.ForwardsServed++
		n.env.Send(m.From, core.ForwardedMsg{From: n.env.ID(), Op: m.Op, Reg: m.Reg, Value: vv})
	}
	var err error
	if m.IsWrite {
		err = n.ops.Write(m.Reg, m.Val, func(vv core.VersionedValue, serr error) {
			if serr != nil {
				refuse(core.ForwardBusy)
				return
			}
			reply(vv)
		})
	} else {
		err = n.ops.Read(m.Reg, func(vv core.VersionedValue, _ core.ProcessID, serr error) {
			if serr != nil {
				refuse(core.ForwardBusy)
				return
			}
			reply(vv)
		})
	}
	if err != nil {
		switch err {
		case core.ErrNotActive:
			refuse(core.ForwardNotActive)
		case core.ErrOpInProgress:
			refuse(core.ForwardBusy)
		default:
			refuse(core.ForwardWrongReplica)
		}
	}
}

// handleForwarded routes a relayed read's answer to its waiting read.
func (n *Node) handleForwarded(m core.ForwardedMsg) {
	o, ok := n.fwd.Get(m.Op)
	if !ok || o.reg != m.Reg {
		return // stale: timed out, retried, or never existed
	}
	n.fwd.Finish(m.Op)
	if m.Code == core.ForwardOK {
		o.done(m.Value, m.From, nil)
		return
	}
	// Explicit refusal: space the retry out and re-resolve routing (the
	// refusal usually means our view lags the server's).
	attempt := o.attempts + 1
	n.env.After(retryDelayTicks, func() { n.dispatchRead(o.reg, attempt, o.done) })
}

func containsID(ids []core.ProcessID, id core.ProcessID) bool {
	for _, m := range ids {
		if m == id {
			return true
		}
	}
	return false
}
