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

// stubEnv is the Env of one unsharded node with no network behind it: it
// keeps the last message the node sent and the last timer it armed, and
// allocates nothing itself, so AllocsPerRun counts the node's own work.
type stubEnv struct {
	last  core.Message
	timer func()
}

func (e *stubEnv) ID() core.ProcessID                    { return 1 }
func (e *stubEnv) Now() sim.Time                         { return 0 }
func (e *stubEnv) Send(_ core.ProcessID, m core.Message) { e.last = m }
func (e *stubEnv) Broadcast(m core.Message)              { e.last = m }
func (e *stubEnv) After(_ sim.Duration, fn func())       { e.timer = fn }
func (e *stubEnv) Delta() sim.Duration                   { return 5 }
func (e *stubEnv) SystemSize() int                       { return 3 }
func (e *stubEnv) MarkActive()                           {}

// newStubNode builds a bootstrap wrapper around f's node on a stubEnv.
func newStubNode(f core.NodeFactory) (*shard.Node, *stubEnv) {
	env := &stubEnv{}
	n := shard.New(env, core.SpawnContext{Bootstrap: true}, f)
	n.Start()
	return n, env
}

// TestServeForwardAllocs pins what serving one FORWARD costs in
// allocations on an unsharded node: the FORWARD in, the inner protocol's
// operation (for abd, the two quorum answers it waits for), the FORWARDED
// out. The FORWARD is boxed in advance; the abd answers name the
// operation's id, so the test boxes each per run, and the abd ceilings
// count those two allocations. The wrapper hands the caller's done to the
// engine unwrapped; a wrapping closure would cost each abd case one more.
func TestServeForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const reg = 4
	served := func(t *testing.T, env *stubEnv) {
		if m, ok := env.last.(core.ForwardedMsg); !ok || m.Code != core.ForwardOK {
			t.Fatalf("node answered %v, want a served FORWARDED", env.last)
		}
	}
	var read, write core.Message = core.ForwardMsg{From: 9, Op: 1, Reg: reg},
		core.ForwardMsg{From: 9, Op: 1, Reg: reg, IsWrite: true, Val: 7}
	cases := []struct {
		name    string
		factory core.NodeFactory
		fwd     core.Message
		max     float64
	}{
		{"sync read", syncreg.Factory(syncreg.Options{}), read, 4},
		{"abd read", abd.Factory(), read, 10},
		{"abd write", abd.Factory(), write, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, env := newStubNode(tc.factory)
			serve := func() {
				n.Deliver(9, tc.fwd)
				switch m := env.last.(type) {
				case core.ReadMsg:
					for _, from := range []core.ProcessID{2, 3} {
						n.Deliver(from, core.ReplyMsg{From: from, Value: core.ImplicitInitial(), RSN: m.RSN, Reg: reg, Op: m.Op})
					}
				case core.WriteMsg:
					for _, from := range []core.ProcessID{2, 3} {
						n.Deliver(from, core.AckMsg{From: from, SN: m.Value.SN, Reg: reg, Op: m.Op})
					}
				}
			}
			serve()
			served(t, env)
			if got := testing.AllocsPerRun(200, serve); got > tc.max {
				t.Fatalf("serving a FORWARD allocates %v times, want <= %v", got, tc.max)
			}
			served(t, env)
		})
	}
}

// TestServeForwardRefusesOnStaleView: a FORWARD reaches a node whose view
// disagrees with the sender's. A write at a group member that is not the
// key's primary, and a read at a node outside the key's group, are each
// refused with ForwardWrongReplica — only the current primary mints a
// key's sequence numbers, and a non-replica holds nothing to read — and
// neither reaches the inner protocol.
func TestServeForwardRefusesOnStaleView(t *testing.T) {
	view := placement.Build(placement.Config{Shards: 8, Replication: 3}, []core.ProcessID{1, 2, 3, 4, 5})
	var member, outsider core.RegisterID // member: 1 replicates it, not as primary
	for k := core.RegisterID(1); member == 0 || outsider == 0; k++ {
		switch g := view.Group(k); {
		case member == 0 && view.IsReplica(k, 1) && g[0] != 1:
			member = k
		case outsider == 0 && !view.IsReplica(k, 1):
			outsider = k
		}
	}
	for _, tc := range []struct {
		name    string
		factory core.NodeFactory
	}{
		{"sync", syncreg.Factory(syncreg.Options{})},
		{"abd", abd.Factory()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, env := newStubNode(tc.factory)
			n.PlacementChanged(view)
			before := []core.VersionedValue{n.SnapshotKey(member), n.SnapshotKey(outsider)}
			for _, m := range []core.ForwardMsg{
				{From: 9, Op: 1, Reg: member, IsWrite: true, Val: 7},
				{From: 9, Op: 2, Reg: outsider},
			} {
				env.last = nil
				n.Deliver(9, m)
				if r, ok := env.last.(core.ForwardedMsg); !ok || r.Code != core.ForwardWrongReplica || r.Op != m.Op {
					t.Fatalf("FORWARD %+v answered with %v, want FORWARDED(WRONG_REPLICA)", m, env.last)
				}
			}
			after := []core.VersionedValue{n.SnapshotKey(member), n.SnapshotKey(outsider)}
			if before[0] != after[0] || before[1] != after[1] {
				t.Fatalf("refused FORWARDs changed the store: %v -> %v", before, after)
			}
			if st := n.Stats(); st.ForwardsRefused != 2 || st.ForwardsServed != 0 {
				t.Fatalf("stats %+v, want 2 refused and none served", st)
			}
		})
	}
}

// TestHandoffServesQueuedOpsInArrivalOrder: a process that joined the
// system gains a shard when a member departs, and the shard is pending
// until a majority of its donors answer. A local read, a FORWARD and a
// second local read arrive during the handoff; none is served before the
// shard is ready, and then all three are served in arrival order, against
// the state the donors handed over.
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
		read     int
		val      core.Value
		forwards uint64 // FORWARDs the joiner had served when the read ran
	}
	var reads []served
	read := func(i int) {
		err := jn.Read(key, func(vv core.VersionedValue, _ core.ProcessID, err error) {
			if err != nil {
				t.Errorf("read failed: %v", err)
			}
			reads = append(reads, served{i, vv.Val, jn.Stats().ForwardsServed - before.ForwardsServed})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	read(1)
	jn.Deliver(v.GroupFor(gained)[0], core.ForwardMsg{From: v.GroupFor(gained)[0], Op: 1, Reg: key})
	read(2)
	if st := jn.Stats(); len(reads) != 0 || st.ForwardsServed != before.ForwardsServed || jn.PendingOps() != 3 {
		t.Fatalf("served before the handoff completed: reads %v, stats %+v, %d pending", reads, st, jn.PendingOps())
	}

	if err := sys.RunFor(3 * 5); err != nil {
		t.Fatal(err)
	}
	st := jn.Stats()
	if started == 0 || st.HandoffsComplete-before.HandoffsComplete != started {
		t.Fatalf("%d handoffs started, %d completed", started, st.HandoffsComplete-before.HandoffsComplete)
	}
	want := []served{{1, 77, 0}, {2, 77, 1}}
	if len(reads) != 2 || reads[0] != want[0] || reads[1] != want[1] || st.ForwardsServed != before.ForwardsServed+1 {
		t.Fatalf("reads %v, forwards served %d; want %v and one FORWARD served between them",
			reads, st.ForwardsServed-before.ForwardsServed, want)
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

// writeBatch runs one batch at id to completion and returns what the
// messages it sent were, by kind.
func writeBatch(t *testing.T, sys *dynsys.System, id core.ProcessID, keys []core.RegisterID) map[core.MsgKind]uint64 {
	t.Helper()
	entries := make([]core.KeyedWrite, len(keys))
	for i, k := range keys {
		entries[i] = core.KeyedWrite{Reg: k, Val: core.Value(100 + k)}
	}
	before := sys.Network().Stats().SentByKind
	var got []core.KeyedValue
	calls := 0
	err := sys.Node(id).(*shard.Node).WriteBatch(entries, func(kvs []core.KeyedValue, err error) {
		if err != nil {
			t.Errorf("batch failed: %v", err)
		}
		got = kvs
		calls++
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(100); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("done ran %d times, want once", calls)
	}
	for i, kv := range got {
		if kv.Reg != keys[i] || kv.Value.Val != core.Value(100+keys[i]) || kv.Value.SN != 1 {
			t.Fatalf("entry %d stored %v, want %v=⟨%d,#1⟩", i, kv, keys[i], 100+keys[i])
		}
	}
	sent := sys.Network().Stats().SentByKind
	for k := range sent {
		sent[k] -= before[k]
	}
	return sent
}

func TestBatchInOneOwnedShardIsOneBroadcast(t *testing.T) {
	sys := newSharded(t, 5, 4, 3)
	v := sys.Placement()
	keys := keysOf(v, 0, 3)
	primary := v.GroupFor(0)[0]
	sent := writeBatch(t, sys, primary, keys)
	if sent[core.KindWriteBatch] != uint64(len(v.GroupFor(0))) || sent[core.KindWrite] != 0 || sent[core.KindForward] != 0 {
		t.Fatalf("sent %v; want one WRITE_BATCH to each of the %d group members and nothing else", sent, len(v.GroupFor(0)))
	}
	if got := sys.Node(primary).(*shard.Node).Inner().(*syncreg.Node).Stats().BatchWrites; got != 1 {
		t.Fatalf("primary ran %d batched broadcasts, want 1", got)
	}
}

// TestBatchAcrossShardsDecomposes: a batch over two shards with one
// primary, entered there, runs as one WRITE per key — one broadcast to
// the union of both groups would store each key outside its group — and
// relays nothing.
func TestBatchAcrossShardsDecomposes(t *testing.T) {
	sys := newSharded(t, 5, 8, 3)
	v := sys.Placement()
	// Eight shards over five processes: two of them share a primary.
	var keys []core.RegisterID
	for a := 0; a < v.NumShards() && keys == nil; a++ {
		for b := a + 1; b < v.NumShards(); b++ {
			if v.GroupFor(a)[0] == v.GroupFor(b)[0] {
				keys = append(keysOf(v, a, 1), keysOf(v, b, 1)...)
				break
			}
		}
	}
	if keys[0] > keys[1] {
		keys[0], keys[1] = keys[1], keys[0]
	}
	sent := writeBatch(t, sys, v.GroupFor(v.ShardOf(keys[0]))[0], keys)
	if sent[core.KindWriteBatch] != 0 || sent[core.KindWrite] == 0 || sent[core.KindForward] != 0 {
		t.Fatalf("sent %v; want per-key WRITEs, no WRITE_BATCH and no FORWARD", sent)
	}
}

// TestWriteAtNonPrimaryRefused: a write, and a one-key batch, invoked at
// any process but the key's primary — a replica or not — fail at
// invocation with ErrUnroutable. done never runs, nothing is sent, and no
// process stores the value.
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
		err := n.WriteBatch([]core.KeyedWrite{{Reg: key, Val: val}}, func([]core.KeyedValue, error) { calls++ })
		if !errors.Is(err, core.ErrUnroutable) {
			t.Fatalf("batch at %v (group %v): err = %v, want ErrUnroutable", id, v.Group(key), err)
		}
	}
	if err := sys.RunFor(50); err != nil {
		t.Fatal(err)
	}
	if calls != 0 || sys.Network().Stats().Sent != sent {
		t.Fatalf("refused writes ran done %d times and sent %d messages", calls, sys.Network().Stats().Sent-sent)
	}
	sys.ForEachNode(func(id core.ProcessID, n core.Node) {
		if got := n.(*shard.Node).SnapshotKey(key); got.Val == val {
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

	n, _ := newStubNode(syncreg.Factory(syncreg.Options{}))
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
		n.Deliver(d, core.ReplyMsg{From: d, Value: core.Bottom(), RSN: core.HandoffReadSeq, Reg: core.DefaultRegister, Op: core.OpID(shardOf)})
	}
	if st := n.Stats(); st.HandoffsComplete != 1 || st.LocalWrites != 0 {
		t.Fatalf("stats %+v, want the handoff complete and no write served", st)
	}
	if len(got) != 1 || !errors.Is(got[0], core.ErrUnroutable) || n.PendingOps() != 0 {
		t.Fatalf("queued write ended with %v, %d pending; want ErrUnroutable once", got, n.PendingOps())
	}
	if v := n.SnapshotKey(key); v.Val == 7 {
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
	if err := gn.Read(key, func(vv core.VersionedValue, _ core.ProcessID, err error) {
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

// TestJoinerFirstViewHandsOffEveryOwnedShard: a fresh joiner's first view
// starts one handoff per shard it owns, and once they complete it serves
// locally the values written before it entered.
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

	joiner, _ := sys.Spawn()
	jn := sys.Node(joiner).(*shard.Node)
	owned := sys.Placement().OwnedShards(joiner)
	if st := jn.Stats(); len(owned) == 0 || st.HandoffsStarted != uint64(len(owned)) {
		t.Fatalf("joiner owns %d shards and started %d handoffs, want one per shard", len(owned), st.HandoffsStarted)
	}
	if err := sys.RunFor(100); err != nil {
		t.Fatal(err)
	}
	if st := jn.Stats(); !jn.Active() || st.HandoffsComplete != st.HandoffsStarted {
		t.Fatalf("joiner active=%v, %d of %d handoffs complete", jn.Active(), st.HandoffsComplete, st.HandoffsStarted)
	}
	for _, s := range owned {
		k := keysOf(v, s, 1)[0]
		var got core.VersionedValue
		from := core.NoProcess
		if err := jn.Read(k, func(vv core.VersionedValue, p core.ProcessID, err error) {
			if err != nil {
				t.Errorf("read %v: %v", k, err)
			}
			got, from = vv, p
		}); err != nil {
			t.Fatal(err)
		}
		if got.Val != core.Value(100+k) || from != joiner {
			t.Fatalf("joiner read %v = %v served by %v, want %d served locally", k, got, from, 100+k)
		}
	}
}
