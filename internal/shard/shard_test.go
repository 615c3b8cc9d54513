package shard_test

import (
	"errors"
	"slices"
	"testing"

	"churnreg/internal/abd"
	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/netsim"
	"churnreg/internal/placement"
	"churnreg/internal/shard"
	"churnreg/internal/sim"
	"churnreg/internal/syncreg"
)

// stubEnv is the Env of one node with no network behind it: what the
// node sends goes nowhere and its timers never fire.
type stubEnv struct{}

func (stubEnv) ID() core.ProcessID                { return 1 }
func (stubEnv) Now() sim.Time                     { return 0 }
func (stubEnv) Send(core.ProcessID, core.Message) {}
func (stubEnv) Broadcast(core.Message)            {}
func (stubEnv) After(sim.Duration, func())        {}
func (stubEnv) Delta() sim.Duration               { return 5 }
func (stubEnv) SystemSize() int                   { return 3 }
func (stubEnv) MarkActive()                       {}

// newStubNode builds a bootstrap wrapper around f's node on a stubEnv.
func newStubNode(f core.NodeFactory) *shard.Node {
	n := shard.New(stubEnv{}, core.SpawnContext{Bootstrap: true}, f)
	n.Start()
	return n
}

// TestHandoffServesQueuedOpsInArrivalOrder: a process that joined the
// system gains a shard when a member departs, and the shard is pending
// until a majority of its donors answer. Three reads arrive during the
// handoff; none is served before the shard is ready, and then all three
// are served in arrival order, against the state the donors handed over.
func TestHandoffServesQueuedOpsInArrivalOrder(t *testing.T) {
	const shards, repl = 8, 3
	sys := newSharded(t, 4, shards, repl)
	joiner, _ := sys.Spawn()
	if err := sys.RunFor(100); err != nil {
		t.Fatal(err)
	}
	jn := sys.Node(joiner).(*shard.Node)
	if !jn.Active() {
		t.Fatal("joiner did not finish its join")
	}

	// Find a departure that hands the joiner a shard, and a key in it.
	v := sys.Placement()
	victim, gained := core.NoProcess, -1
	for _, id := range v.Members() {
		var rest []core.ProcessID
		for _, m := range v.Members() {
			if m != id {
				rest = append(rest, m)
			}
		}
		if g := placement.Gained(v, placement.Build(placement.Config{Shards: shards, Replication: repl}, rest), joiner); id != joiner && len(g) > 0 {
			victim, gained = id, g[0]
			break
		}
	}
	if gained < 0 {
		t.Fatal("no departure hands the joiner a shard")
	}
	key := keysOf(v, gained, 1)[0]

	// Store a value the joiner does not hold yet.
	stored := false
	if err := sys.Node(v.GroupFor(gained)[0]).(core.Ops).Write(key, 77, func(_ core.VersionedValue, err error) { stored = err == nil }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(20); err != nil || !stored {
		t.Fatalf("write did not complete: %v", err)
	}

	before := jn.Stats()
	sys.KillProcess(victim)
	started := jn.Stats().HandoffsStarted - before.HandoffsStarted
	type served struct {
		read int
		val  core.Value
	}
	var reads []served
	for i := 1; i <= 3; i++ {
		err := jn.Read(key, func(vv core.VersionedValue, err error) {
			if err != nil {
				t.Errorf("read failed: %v", err)
			}
			reads = append(reads, served{i, vv.Val})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(reads) != 0 || jn.PendingOps() != 3 {
		t.Fatalf("served before the handoff completed: reads %v, %d pending", reads, jn.PendingOps())
	}

	if err := sys.RunFor(3 * 5); err != nil {
		t.Fatal(err)
	}
	st := jn.Stats()
	if started == 0 || st.HandoffsComplete-before.HandoffsComplete != started {
		t.Fatalf("%d handoffs started, %d completed", started, st.HandoffsComplete-before.HandoffsComplete)
	}
	if want := []served{{1, 77}, {2, 77}, {3, 77}}; !slices.Equal(reads, want) {
		t.Fatalf("reads %v, want %v", reads, want)
	}
	if jn.PendingOps() != 0 {
		t.Fatalf("%d operations still pending", jn.PendingOps())
	}
}

// newSharded builds a seeded synchronous system of n bootstrap processes
// over s shards of r replicas.
func newSharded(t *testing.T, n, s, r int) *dynsys.System {
	t.Helper()
	sys, err := dynsys.New(dynsys.Config{
		N: n, Delta: 5, Model: netsim.SynchronousModel{Delta: 5}, Seed: 1,
		Factory:   shard.Factory(syncreg.Factory(syncreg.Options{})),
		Placement: placement.Config{Shards: s, Replication: r},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// keysOf returns the first count keys ≥ 1 that shard s holds, ascending.
func keysOf(v *placement.View, s, count int) []core.RegisterID {
	var ks []core.RegisterID
	for k := core.RegisterID(1); len(ks) < count; k++ {
		if v.ShardOf(k) == s {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestWriteAtNonPrimaryRefused: a write invoked at any process but the
// key's primary — a replica or not — fails at invocation with
// ErrUnroutable. done never runs, nothing is sent, and no process
// stores the value.
func TestWriteAtNonPrimaryRefused(t *testing.T) {
	sys := newSharded(t, 5, 4, 3)
	v := sys.Placement()
	const key, val = 7, 99
	sent := sys.Network().Stats().Sent
	calls := 0
	for _, id := range v.Members() {
		if id == v.Group(key)[0] {
			continue
		}
		n := sys.Node(id).(*shard.Node)
		if err := n.Write(key, val, func(core.VersionedValue, error) { calls++ }); !errors.Is(err, core.ErrUnroutable) {
			t.Fatalf("write at %v (group %v): err = %v, want ErrUnroutable", id, v.Group(key), err)
		}
	}
	if err := sys.RunFor(50); err != nil {
		t.Fatal(err)
	}
	if calls != 0 || sys.Network().Stats().Sent != sent {
		t.Fatalf("refused writes ran done %d times and sent %d messages", calls, sys.Network().Stats().Sent-sent)
	}
	sys.ForEachNode(func(id core.ProcessID, n core.Node) {
		if got := n.(*shard.Node).Store().Value(key, n.Active()); got.Val == val {
			t.Fatalf("%v stores %v after refused writes", id, got)
		}
		if p := n.(*shard.Node).PendingOps(); p != 0 {
			t.Fatalf("%v has %d operations pending", id, p)
		}
	})
}

// TestQueuedWriteChecksPrimacyAgain: a write queued behind a pending
// handoff at the shard's primary runs only once the shard is ready, and
// by then a later view may have made another process primary. The write
// then fails with ErrUnroutable instead of minting a sequence number at
// a node that no longer owns the key's writes.
func TestQueuedWriteChecksPrimacyAgain(t *testing.T) {
	cfg := placement.Config{Shards: 8, Replication: 2}
	view1 := placement.Build(cfg, []core.ProcessID{1, 2, 3, 4, 5})
	// A shard p1 does not replicate, whose group is two processes; once
	// both leave, p1 is its primary and must hand it off first.
	shardOf := -1
	var rest []core.ProcessID
	for s := 0; s < cfg.Shards && shardOf < 0; s++ {
		g := view1.GroupFor(s)
		rest = nil
		for _, id := range view1.Members() {
			if id != g[0] && id != g[1] {
				rest = append(rest, id)
			}
		}
		if !slices.Contains(g, 1) && placement.Build(cfg, rest).GroupFor(s)[0] == 1 {
			shardOf = s
		}
	}
	if shardOf < 0 {
		t.Fatal("no shard hands p1 the primary role")
	}
	view2 := placement.Build(cfg, rest)
	// A joiner that takes the primary role from p1 but leaves it a replica.
	var view3 *placement.View
	for j := core.ProcessID(6); view3 == nil && j < 100; j++ {
		if v := placement.Build(cfg, append(slices.Clone(rest), j)); v.GroupFor(shardOf)[0] == j && slices.Contains(v.GroupFor(shardOf), 1) {
			view3 = v
		}
	}
	if view3 == nil {
		t.Fatal("no joiner takes the primary role from p1")
	}
	key := keysOf(view1, shardOf, 1)[0]

	n := newStubNode(syncreg.Factory(syncreg.Options{}))
	n.PlacementChanged(view1)
	n.PlacementChanged(view2)
	var got []error
	if err := n.Write(key, 7, func(_ core.VersionedValue, err error) { got = append(got, err) }); err != nil {
		t.Fatalf("write at the primary of a pending shard: %v", err)
	}
	if len(got) != 0 || n.PendingOps() != 1 {
		t.Fatalf("write ran before the handoff: %v, %d pending", got, n.PendingOps())
	}
	n.PlacementChanged(view3)
	for _, d := range placement.Donors(view2, view3, shardOf, 1) {
		n.Deliver(d, core.ReplyMsg{From: d, Value: core.Bottom(), Reg: core.DefaultRegister, Op: core.HandoffOp(shardOf)})
	}
	if st := n.Stats(); st.HandoffsComplete != 1 || st.LocalWrites != 0 {
		t.Fatalf("stats %+v, want the handoff complete and no write served", st)
	}
	if len(got) != 1 || !errors.Is(got[0], core.ErrUnroutable) || n.PendingOps() != 0 {
		t.Fatalf("queued write ended with %v, %d pending; want ErrUnroutable once", got, n.PendingOps())
	}
	if v := n.Store().Value(key, n.Active()); v.Val == 7 {
		t.Fatalf("the refused write was stored: %v", v)
	}
}

// TestHandoffReadyOnDonorMajority: a process gains a shard with three
// donors when a member departs. One donor's handoff REPLY is held back
// and the other two arrive apart, the second after a retry round, so the
// shard stays pending with one answer — the round re-asks only the two
// silent donors — and becomes ready with the second, a majority, without
// the third. A read queued on the shard is served only then, with the
// value the donors held.
func TestHandoffReadyOnDonorMajority(t *testing.T) {
	const shards, repl = 8, 4
	model := netsim.ScriptedDelayModel{
		Base:      netsim.SynchronousModel{Delta: 5},
		Overrides: map[netsim.Route]sim.Duration{},
	}
	sys, err := dynsys.New(dynsys.Config{
		N: 6, Delta: 5, Model: model, Seed: 1,
		Factory:   shard.Factory(syncreg.Factory(syncreg.Options{})),
		Placement: placement.Config{Shards: shards, Replication: repl},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find a departure that hands some process exactly one shard, whose
	// donors are three survivors.
	v := sys.Placement()
	victim, gainer, gained := core.NoProcess, core.NoProcess, -1
	var donors []core.ProcessID
	for _, x := range v.Members() {
		var rest []core.ProcessID
		for _, m := range v.Members() {
			if m != x {
				rest = append(rest, m)
			}
		}
		next := placement.Build(placement.Config{Shards: shards, Replication: repl}, rest)
		for _, g := range rest {
			if s := placement.Gained(v, next, g); len(s) == 1 && len(placement.Donors(v, next, s[0], g)) == 3 {
				victim, gainer, gained, donors = x, g, s[0], placement.Donors(v, next, s[0], g)
			}
		}
	}
	if gained < 0 {
		t.Fatal("no departure hands one process one shard with three donors")
	}
	key := keysOf(v, gained, 1)[0]
	stored := false
	if err := sys.Node(v.GroupFor(gained)[0]).(core.Ops).Write(key, 77, func(_ core.VersionedValue, err error) { stored = err == nil }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(20); err != nil || !stored {
		t.Fatalf("write did not complete: %v", err)
	}

	// Inquiries reach the donors in one tick. The first donor's REPLY
	// takes one tick, the second's twenty — past the first retry round,
	// 3δ+1 = 16 ticks after the departure — and the third's far longer
	// than the test runs.
	model.Overrides[netsim.Route{From: gainer, Kind: core.KindInquiry}] = 1
	model.Overrides[netsim.Route{From: donors[0], To: gainer, Kind: core.KindReply}] = 1
	model.Overrides[netsim.Route{From: donors[1], To: gainer, Kind: core.KindReply}] = 20
	model.Overrides[netsim.Route{From: donors[2], To: gainer, Kind: core.KindReply}] = 1000
	gn := sys.Node(gainer).(*shard.Node)
	before := gn.Stats()
	sys.KillProcess(victim)
	if st := gn.Stats(); st.HandoffsStarted != before.HandoffsStarted+1 {
		t.Fatalf("%d handoffs started, want 1", st.HandoffsStarted-before.HandoffsStarted)
	}
	var got []core.VersionedValue
	if err := gn.Read(key, func(vv core.VersionedValue, err error) {
		if err != nil {
			t.Errorf("read failed: %v", err)
		}
		got = append(got, vv)
	}); err != nil {
		t.Fatal(err)
	}

	pending := func(at string) {
		t.Helper()
		if st := gn.Stats(); st.HandoffSnapshots != before.HandoffSnapshots+1 || st.HandoffsComplete != before.HandoffsComplete || len(got) != 0 {
			t.Fatalf("%s: %d snapshots, %d complete, reads %v; want the shard pending on one answer and the read queued",
				at, st.HandoffSnapshots-before.HandoffSnapshots, st.HandoffsComplete-before.HandoffsComplete, got)
		}
	}
	if err := sys.RunFor(4); err != nil {
		t.Fatal(err)
	}
	pending("after one answer")
	inquiries := sys.Network().Stats().SentByKind[core.KindInquiry]
	if err := sys.RunFor(14); err != nil {
		t.Fatal(err)
	}
	pending("after a retry round")
	if got := sys.Network().Stats().SentByKind[core.KindInquiry] - inquiries; got != 2 {
		t.Fatalf("the retry round sent %d inquiries, want 2: one to each silent donor", got)
	}
	if err := sys.RunFor(7); err != nil {
		t.Fatal(err)
	}
	if st := gn.Stats(); st.HandoffSnapshots != before.HandoffSnapshots+2 || st.HandoffsComplete != before.HandoffsComplete+1 {
		t.Fatalf("after two answers: %d snapshots, %d complete; want the shard ready",
			st.HandoffSnapshots-before.HandoffSnapshots, st.HandoffsComplete-before.HandoffsComplete)
	}
	if len(got) != 1 || got[0].Val != 77 {
		t.Fatalf("queued read returned %v, want one read of 77", got)
	}
	if gn.PendingOps() != 0 {
		t.Fatalf("%d operations still pending", gn.PendingOps())
	}
}

// TestJoinerFirstViewHandsOffEveryOwnedShard: a joiner owns no shard
// while it joins; the view adopted when its join returns is the first
// that counts it, and it starts one handoff per shard it owns there. Once
// they complete it serves locally the values written before it entered.
func TestJoinerFirstViewHandsOffEveryOwnedShard(t *testing.T) {
	sys := newSharded(t, 4, 8, 3)
	v := sys.Placement()
	for s := 0; s < v.NumShards(); s++ {
		k := keysOf(v, s, 1)[0]
		if err := sys.Node(v.GroupFor(s)[0]).(core.Ops).Write(k, core.Value(100+k), func(core.VersionedValue, error) {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.RunFor(20); err != nil {
		t.Fatal(err)
	}

	var owned []int
	var started uint64
	joiner, node := sys.Spawn()
	jn := node.(*shard.Node)
	sys.OnActivate(func(id core.ProcessID) {
		if id == joiner {
			owned, started = sys.Placement().OwnedShards(joiner), jn.Stats().HandoffsStarted
		}
	})
	if o := sys.Placement().OwnedShards(joiner); len(o) != 0 || jn.Stats().HandoffsStarted != 0 {
		t.Fatalf("joining process owns %v and started %d handoffs, want none", o, jn.Stats().HandoffsStarted)
	}
	if err := sys.RunFor(100); err != nil {
		t.Fatal(err)
	}
	if len(owned) == 0 || started != uint64(len(owned)) {
		t.Fatalf("joiner owns %d shards at activation and started %d handoffs, want one per shard", len(owned), started)
	}
	if st := jn.Stats(); !jn.Active() || st.HandoffsComplete != st.HandoffsStarted {
		t.Fatalf("joiner active=%v, %d of %d handoffs complete", jn.Active(), st.HandoffsComplete, st.HandoffsStarted)
	}
	for _, s := range owned {
		k := keysOf(v, s, 1)[0]
		var got core.VersionedValue
		if err := jn.Read(k, func(vv core.VersionedValue, err error) {
			if err != nil {
				t.Errorf("read %v: %v", k, err)
			}
			got = vv
		}); err != nil {
			t.Fatal(err)
		}
		if got.Val != core.Value(100+k) {
			t.Fatalf("joiner read %v = %v, want %d", k, got, 100+k)
		}
	}
}

// TestActivationWaitsOutOldViewWrites: a write its primary invokes just
// before a joiner activates goes to the old group only, and its WRITEs to
// the other donors are held for just under δ. The joiner, which gains
// the shard at activation, must not complete its handoff from donors the
// WRITE has not reached yet: a read at the joiner after the write returned
// returns the write. (n = 4, S = 1, R = 4, synchronous: the group goes
// from {4, 1, 2, 3} to {4, 1, 2, 5} when the joiner, process 5,
// activates, and the primary's handoff reply is slow, so donors 1 and 2,
// a majority, could answer first without the write.)
func TestActivationWaitsOutOldViewWrites(t *testing.T) {
	const delta = 5
	model := netsim.ScriptedDelayModel{
		Base:      netsim.SynchronousModel{Delta: delta},
		Overrides: map[netsim.Route]sim.Duration{},
	}
	sys, err := dynsys.New(dynsys.Config{
		N: 4, Delta: delta, Model: model, Seed: 1,
		Factory:   shard.Factory(syncreg.Factory(syncreg.Options{})),
		Placement: placement.Config{Shards: 1, Replication: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	primary := sys.Placement().GroupFor(0)[0]
	joiner, node := sys.Spawn()
	jn := node.(*shard.Node)
	model.Overrides[netsim.Route{From: primary, Kind: core.KindWrite}] = delta - 1
	model.Overrides[netsim.Route{From: joiner, Kind: core.KindInquiry}] = 1
	model.Overrides[netsim.Route{To: joiner, Kind: core.KindReply}] = 1
	model.Overrides[netsim.Route{From: primary, To: joiner, Kind: core.KindReply}] = 4 * delta

	// The join returns 3δ after the spawn (Figure 1: wait δ, then 2δ).
	if err := sys.RunFor(3*delta - 1); err != nil {
		t.Fatal(err)
	}
	if jn.Active() {
		t.Fatal("joiner active before 3δ")
	}
	const key = core.RegisterID(1)
	returned := false
	if err := sys.Node(primary).(core.Ops).Write(key, 77, func(_ core.VersionedValue, err error) { returned = err == nil }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(1); err != nil {
		t.Fatal(err)
	}
	if g := sys.Placement().GroupFor(0); !jn.Active() || !slices.Equal(g, []core.ProcessID{primary, 1, 2, joiner}) {
		t.Fatalf("one tick later: joiner active=%v, group %v; want it active and in [%v 1 2 %v]", jn.Active(), g, primary, joiner)
	}
	for !returned {
		if err := sys.RunFor(1); err != nil {
			t.Fatal(err)
		}
	}
	var got []core.VersionedValue
	if err := jn.Read(key, func(v core.VersionedValue, err error) {
		if err != nil {
			t.Errorf("read at the joiner: %v", err)
		}
		got = append(got, v)
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(10 * delta); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Val != 77 {
		t.Fatalf("read at the joiner after the write returned: %v, want 77", got)
	}
}

// TestHandoffSendsNoAcks: a process that gains shards adopts the donors'
// snapshots into its store and answers them with nothing. Under abd, n =
// 6, S = 8, R = 3: with 64 keys written, a member departs, and no ACK
// frame is sent between the departure and the last handoff's completion
// — an ACK only completes a WRITE's quorum, and the handoff sends no
// WRITE. (An abd replacement never becomes active, so under abd shards
// move only at departures.)
func TestHandoffSendsNoAcks(t *testing.T) {
	sys, err := dynsys.New(dynsys.Config{
		N: 6, Delta: 5, Model: netsim.SynchronousModel{Delta: 5}, Seed: 9,
		Factory:   shard.Factory(abd.Factory()),
		Placement: placement.Config{Shards: 8, Replication: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := sys.Placement()
	written := 0
	for s := 0; s < v.NumShards(); s++ {
		for _, k := range keysOf(v, s, 8) {
			if err := sys.Node(v.GroupFor(s)[0]).(core.Ops).Write(k, core.Value(100+k), func(_ core.VersionedValue, err error) {
				if err == nil {
					written++
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sys.RunFor(50); err != nil {
		t.Fatal(err)
	}
	if written != 64 {
		t.Fatalf("%d of 64 writes completed", written)
	}

	acks := sys.Network().Stats().SentByKind[core.KindAck]
	sys.KillProcess(v.Members()[0])
	handoffs := func() (started, complete uint64) {
		sys.ForEachNode(func(_ core.ProcessID, n core.Node) {
			st := n.(*shard.Node).Stats()
			started, complete = started+st.HandoffsStarted, complete+st.HandoffsComplete
		})
		return started, complete
	}
	for i := 0; ; i++ {
		if started, complete := handoffs(); started > 0 && complete == started {
			break
		}
		if i == 200 {
			started, complete := handoffs()
			t.Fatalf("%d of %d handoffs complete after 200 ticks", complete, started)
		}
		if err := sys.RunFor(1); err != nil {
			t.Fatal(err)
		}
	}
	if sent := sys.Network().Stats().SentByKind[core.KindAck] - acks; sent != 0 {
		t.Fatalf("the handoff sent %d ACK frames, want 0", sent)
	}
	sys.ForEachNode(func(id core.ProcessID, n core.Node) {
		for _, s := range sys.Placement().OwnedShards(id) {
			for _, k := range keysOf(v, s, 8) {
				if got := n.(*shard.Node).Store().Value(k, true); got.Val != core.Value(100+k) {
					t.Fatalf("%v holds %v = %v after the handoff, want %d", id, k, got, 100+k)
				}
			}
		}
	})
}

// TestSyncReadAtNonReplicaRefused: the synchronous protocol's read
// returns the local copy, which only the key's replicas keep current. At
// any process outside the key's group the read fails at invocation with
// ErrUnroutable: done never runs and nothing is sent.
func TestSyncReadAtNonReplicaRefused(t *testing.T) {
	sys := newSharded(t, 5, 4, 3)
	v := sys.Placement()
	const key = 7
	sent := sys.Network().Stats().Sent
	calls, refused := 0, 0
	for _, id := range v.Members() {
		if v.IsReplica(key, id) {
			continue
		}
		err := sys.Node(id).(*shard.Node).Read(key, func(core.VersionedValue, error) { calls++ })
		if !errors.Is(err, core.ErrUnroutable) {
			t.Fatalf("read at %v (group %v): err = %v, want ErrUnroutable", id, v.Group(key), err)
		}
		refused++
	}
	if err := sys.RunFor(50); err != nil {
		t.Fatal(err)
	}
	if refused == 0 || calls != 0 || sys.Network().Stats().Sent != sent {
		t.Fatalf("%d refused reads ran done %d times and sent %d messages", refused, calls, sys.Network().Stats().Sent-sent)
	}
}

// TestJoiningReplicaReadNotActive: a process that has not finished
// joining replicates nothing, so no read of a key it will replicate runs
// there on state it lacks: the read fails at invocation with
// ErrNotActive, and done never runs.
func TestJoiningReplicaReadNotActive(t *testing.T) {
	sys := newSharded(t, 4, 8, 3)
	joiner, node := sys.Spawn()
	jn := node.(*shard.Node)
	if owned := sys.Placement().OwnedShards(joiner); jn.Active() || len(owned) != 0 {
		t.Fatalf("joiner active=%v, owns %v; want a joining process that owns nothing", jn.Active(), owned)
	}
	calls := 0
	for k := core.RegisterID(0); k < 16; k++ {
		if err := jn.Read(k, func(core.VersionedValue, error) { calls++ }); !errors.Is(err, core.ErrNotActive) {
			t.Fatalf("read of %v at the joining process: %v, want ErrNotActive", k, err)
		}
	}
	if err := sys.RunFor(100); err != nil {
		t.Fatal(err)
	}
	if !jn.Active() || calls != 0 {
		t.Fatalf("joiner active=%v, done ran %d times; want active and never", jn.Active(), calls)
	}
	if owned := sys.Placement().OwnedShards(joiner); len(owned) == 0 {
		t.Fatal("the active joiner owns no shard")
	}
}

// TestNewPrimaryLearnsBeforeItMints: under abd (n = 6, S = 1, R = 3) the
// primary's WRITEs to the shard's second replica are held, so the
// primary's two writes complete on the primary and the third replica
// only. The primary is killed and the second replica, which held the
// shard all along with a stale copy, becomes primary. It must learn the
// shard's state before it mints: its write is acknowledged with a
// sequence number above the two completed writes', not #1 again.
func TestNewPrimaryLearnsBeforeItMints(t *testing.T) {
	model := netsim.ScriptedDelayModel{
		Base:      netsim.FixedDelayModel{D: 1},
		Overrides: map[netsim.Route]sim.Duration{},
	}
	sys, err := dynsys.New(dynsys.Config{
		N: 6, Delta: 5, Model: model, Seed: 3,
		Factory:   shard.Factory(abd.Factory()),
		Placement: placement.Config{Shards: 1, Replication: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	const key = core.RegisterID(1)
	g := sys.Placement().GroupFor(0)
	model.Overrides[netsim.Route{From: g[0], To: g[1], Kind: core.KindWrite}] = 100_000
	write := func(at core.ProcessID, v core.Value) core.VersionedValue {
		t.Helper()
		var got []core.VersionedValue
		if err := sys.Node(at).(core.Ops).Write(key, v, func(vv core.VersionedValue, err error) {
			if err != nil {
				t.Errorf("write of %d at %v: %v", v, at, err)
			}
			got = append(got, vv)
		}); err != nil {
			t.Fatalf("write of %d at %v: %v", v, at, err)
		}
		for i := 0; len(got) == 0; i++ {
			if i == 100 {
				t.Fatalf("write of %d at %v did not complete in 100 ticks", v, at)
			}
			if err := sys.RunFor(1); err != nil {
				t.Fatal(err)
			}
		}
		return got[0]
	}
	if a, b := write(g[0], 11), write(g[0], 12); a.SN != 1 || b.SN != 2 {
		t.Fatalf("the primary's writes were acknowledged as %v and %v, want #1 and #2", a, b)
	}
	sys.KillProcess(g[0])
	if ng := sys.Placement().GroupFor(0); ng[0] != g[1] {
		t.Fatalf("group %v after %v's departure from %v: want %v primary", ng, g[0], g, g[1])
	}
	if got := write(g[1], 21); got.SN <= 2 {
		t.Fatalf("the new primary's write was acknowledged as %v, want a sequence number above #2", got)
	}
}
