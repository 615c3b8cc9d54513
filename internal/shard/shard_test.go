package shard_test

import (
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
	if err := sys.Node(v.Primary(gained)).(core.Ops).Write(key, 77, func(_ core.VersionedValue, err error) { stored = err == nil }); err != nil {
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
	jn.Deliver(v.Primary(gained), core.ForwardMsg{From: v.Primary(gained), Op: 1, Reg: key})
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
	primary := v.Primary(0)
	sent := writeBatch(t, sys, primary, keys)
	if sent[core.KindWriteBatch] != uint64(len(v.GroupFor(0))) || sent[core.KindWrite] != 0 || sent[core.KindForward] != 0 {
		t.Fatalf("sent %v; want one WRITE_BATCH to each of the %d group members and nothing else", sent, len(v.GroupFor(0)))
	}
	if got := sys.Node(primary).(*shard.Node).Inner().(*syncreg.Node).Stats().BatchWrites; got != 1 {
		t.Fatalf("primary ran %d batched broadcasts, want 1", got)
	}
}

func TestBatchAcrossShardsDecomposes(t *testing.T) {
	sys := newSharded(t, 5, 4, 3)
	v := sys.Placement()
	keys := append(keysOf(v, 0, 1), keysOf(v, 1, 1)...)
	if keys[0] > keys[1] {
		keys[0], keys[1] = keys[1], keys[0]
	}
	// Invoke at shard 0's primary: its own key is a local write, the
	// other shard's key a write at that shard's primary.
	primary := v.Primary(0)
	sent := writeBatch(t, sys, primary, keys)
	if sent[core.KindWriteBatch] != 0 || sent[core.KindWrite] == 0 {
		t.Fatalf("sent %v; want per-key WRITEs and no WRITE_BATCH", sent)
	}
	if v.Primary(1) != primary && sent[core.KindForward] != 1 {
		t.Fatalf("sent %v; want the other shard's key forwarded to its primary", sent)
	}
}
