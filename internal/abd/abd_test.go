package abd_test

import (
	"testing"

	"churnreg/internal/abd"
	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/netsim"
	"churnreg/internal/sim"
)

const delta = 5

func newSystem(t *testing.T, n int, churnRate float64) *dynsys.System {
	t.Helper()
	sys, err := dynsys.New(dynsys.Config{
		N:         n,
		Delta:     delta,
		Model:     netsim.SynchronousModel{Delta: delta},
		Factory:   abd.Factory(),
		Seed:      3,
		ChurnRate: churnRate,
		Initial:   core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		t.Fatalf("dynsys.New: %v", err)
	}
	return sys
}

func abdNode(t *testing.T, sys *dynsys.System, id core.ProcessID) *abd.Node {
	t.Helper()
	n, ok := sys.Node(id).(*abd.Node)
	if !ok {
		t.Fatalf("node %v is %T", id, sys.Node(id))
	}
	return n
}

func TestWriteThenRead(t *testing.T) {
	sys := newSystem(t, 5, 0)
	ids := sys.ActiveIDs()
	w := abdNode(t, sys, ids[0])
	r := abdNode(t, sys, ids[2])

	wrote := false
	if err := w.Write(0, 11, func(core.VersionedValue, error) { wrote = true }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(4 * delta); err != nil {
		t.Fatal(err)
	}
	if !wrote {
		t.Fatal("write did not complete")
	}
	var got core.VersionedValue
	if err := r.Read(0, func(v core.VersionedValue, _ error) { got = v }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(4 * delta); err != nil {
		t.Fatal(err)
	}
	if got.Val != 11 || got.SN != 1 {
		t.Fatalf("read %v, want ⟨11,#1⟩", got)
	}
}

func TestReadQuorumIntersectsWriteQuorum(t *testing.T) {
	// Drop the WRITE to two of five processes: the write still completes
	// (3 acks) and any read quorum (3) must include at least one process
	// holding the new value.
	sys := newSystem(t, 5, 0)
	ids := sys.ActiveIDs()
	w := abdNode(t, sys, ids[0])
	dropTo := map[core.ProcessID]bool{ids[3]: true, ids[4]: true}
	sys.Network().SetDropRule(func(_, to core.ProcessID, m core.Message, _ sim.Time) bool {
		return m.Kind() == core.KindWrite && dropTo[to]
	})
	if err := w.Write(0, 5, ignoreWrite); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(4 * delta); err != nil {
		t.Fatal(err)
	}
	r := abdNode(t, sys, ids[4])
	var got core.VersionedValue
	if err := r.Read(0, func(v core.VersionedValue, _ error) { got = v }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(4 * delta); err != nil {
		t.Fatal(err)
	}
	if got.SN != 1 {
		t.Fatalf("read %v, want sn 1", got)
	}
}

func TestReplacementsArePassive(t *testing.T) {
	sys := newSystem(t, 4, 0)
	id, node := sys.Spawn()
	if err := sys.RunFor(10 * delta); err != nil {
		t.Fatal(err)
	}
	if node.Active() {
		t.Fatal("ABD replacement became active without a join protocol")
	}
	n := abdNode(t, sys, id)
	if err := n.Read(0, ignoreRead); err != core.ErrNotActive {
		t.Fatalf("Read on passive replica = %v, want ErrNotActive", err)
	}
	if err := n.Write(0, 1, ignoreWrite); err != core.ErrNotActive {
		t.Fatalf("Write on passive replica = %v, want ErrNotActive", err)
	}
}

func TestPassiveReplicaServesQuorums(t *testing.T) {
	sys := newSystem(t, 4, 0)
	_, _ = sys.Spawn() // p5, passive
	if err := sys.RunFor(2); err != nil {
		t.Fatal(err)
	}
	ids := sys.ActiveIDs()
	r := abdNode(t, sys, ids[0])
	read := false
	if err := r.Read(0, func(core.VersionedValue, error) { read = true }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(4 * delta); err != nil {
		t.Fatal(err)
	}
	if !read {
		t.Fatal("read did not complete")
	}
	// The passive p5 must have answered with ⊥ at least once across the
	// quorum query (it was in the broadcast snapshot).
	p5 := abdNode(t, sys, 5)
	if p5.Stats().RepliesSent == 0 {
		t.Fatal("passive replica did not serve the quorum query")
	}
	if p5.Stats().BottomSent == 0 {
		t.Fatal("passive replica reply was not ⊥")
	}
}

func TestStaleValueAfterHeavyTurnover(t *testing.T) {
	// The motivating failure: under churn, informed replicas are replaced
	// by empty ones; eventually a read quorum can consist entirely of
	// replicas that never saw the write, returning the stale/initial
	// value. (With ⊥-holding replicas, merging yields sn=-1 losers, so the
	// reader keeps its own copy — the erosion shows up as BottomSent and,
	// for fresh readers, as stale results.)
	sys := newSystem(t, 10, 0.02)
	ids := sys.ActiveIDs()
	w := abdNode(t, sys, ids[0])
	wrote := false
	if err := w.Write(0, 400, func(core.VersionedValue, error) { wrote = true }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(3000); err != nil {
		t.Fatal(err)
	}
	if !wrote {
		t.Fatal("write did not complete")
	}
	// After heavy turnover, most replicas hold ⊥.
	bottoms := 0
	for _, id := range sys.Network().PresentIDs() {
		if sys.Node(id).Snapshot().IsBottom() {
			bottoms++
		}
	}
	if bottoms < 5 {
		t.Fatalf("turnover did not erode state: only %d ⊥ replicas of 10", bottoms)
	}
}

// ignoreWrite is a write's done callback for a test that does not look
// at the outcome.
func ignoreWrite(core.VersionedValue, error) {}

// ignoreRead is a read's done callback for a test that does not look at
// the outcome.
func ignoreRead(core.VersionedValue, error) {}

// stubEnv is process 1 of three with no network behind it: it keeps the
// last message the node broadcast.
type stubEnv struct{ last core.Message }

func (e *stubEnv) ID() core.ProcessID                { return 1 }
func (e *stubEnv) Now() sim.Time                     { return 0 }
func (e *stubEnv) Send(core.ProcessID, core.Message) {}
func (e *stubEnv) Broadcast(m core.Message)          { e.last = m }
func (e *stubEnv) After(sim.Duration, func())        {}
func (e *stubEnv) Delta() sim.Duration               { return delta }
func (e *stubEnv) SystemSize() int                   { return 3 }
func (e *stubEnv) MarkActive()                       {}

// TestUntaggedAcksDoNotCount: an ACK that names a write's ⟨reg, sn⟩ but
// carries no OpID answers no WRITE this process sent, so it does not
// count toward the write's quorum; the tagged ACKs of the same replicas
// do.
func TestUntaggedAcksDoNotCount(t *testing.T) {
	env := &stubEnv{}
	n := abd.New(env, core.SpawnContext{Bootstrap: true})
	n.Start()
	const reg = 4
	done := false
	if err := n.Write(reg, 7, func(core.VersionedValue, error) { done = true }); err != nil {
		t.Fatal(err)
	}
	w, ok := env.last.(core.WriteMsg)
	if !ok {
		t.Fatalf("write broadcast %v, want a WRITE", env.last)
	}
	for _, op := range []core.OpID{core.NoOp, w.Op} {
		for _, from := range []core.ProcessID{2, 3} {
			n.Deliver(from, core.AckMsg{From: from, SN: w.Value.SN, Reg: reg, Op: op})
		}
		if want := op == w.Op; done != want {
			t.Fatalf("after two ACKs with op %v: write done = %v, want %v", op, done, want)
		}
	}
	if p := n.PendingOps(); p != 0 {
		t.Fatalf("%d operations pending after the write completed", p)
	}
}
