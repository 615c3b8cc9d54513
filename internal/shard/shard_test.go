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
	newNode := func(f core.NodeFactory) (*shard.Node, *stubEnv) {
		env := &stubEnv{}
		n := shard.New(env, core.SpawnContext{Bootstrap: true}, f)
		n.Start()
		return n, env
	}
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
			n, env := newNode(tc.factory)
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
