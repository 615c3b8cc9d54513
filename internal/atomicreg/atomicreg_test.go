package atomicreg_test

import (
	"testing"

	"churnreg/internal/atomicreg"
	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/esyncreg"
	"churnreg/internal/netsim"
	"churnreg/internal/sim"
	"churnreg/internal/spec"
)

const delta = 5

func newSystem(t *testing.T, n int, model netsim.DelayModel, churnRate float64) *dynsys.System {
	t.Helper()
	if model == nil {
		model = netsim.SynchronousModel{Delta: delta}
	}
	sys, err := dynsys.New(dynsys.Config{
		N:         n,
		Delta:     delta,
		Model:     model,
		Factory:   atomicreg.Factory(esyncreg.Options{}),
		Seed:      5,
		ChurnRate: churnRate,
		Initial:   core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func atNode(t *testing.T, sys *dynsys.System, id core.ProcessID) *atomicreg.Node {
	t.Helper()
	n, ok := sys.Node(id).(*atomicreg.Node)
	if !ok {
		t.Fatalf("node %v is %T", id, sys.Node(id))
	}
	return n
}

func TestWriteThenAtomicRead(t *testing.T) {
	sys := newSystem(t, 5, nil, 0)
	ids := sys.ActiveIDs()
	w := atNode(t, sys, ids[0])
	r := atNode(t, sys, ids[2])
	wrote := false
	if err := w.Write(0, 9, func(core.VersionedValue, error) { wrote = true }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(20 * delta); err != nil {
		t.Fatal(err)
	}
	if !wrote {
		t.Fatal("write incomplete")
	}
	var got core.VersionedValue
	if err := r.Read(0, func(v core.VersionedValue, _ error) { got = v }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(20 * delta); err != nil {
		t.Fatal(err)
	}
	if got.Val != 9 || got.SN != 1 {
		t.Fatalf("read %v, want ⟨9,#1⟩", got)
	}
	if r.Stats().WriteBacks != 1 {
		t.Fatalf("write-backs = %d, want 1", r.Stats().WriteBacks)
	}
}

func TestReadInstallsValueAtMajority(t *testing.T) {
	// After an atomic read returns v, at least a majority must hold ≥ v
	// — the property that forbids inversions.
	sys := newSystem(t, 5, nil, 0)
	ids := sys.ActiveIDs()
	w := atNode(t, sys, ids[0])
	// Suppress the writer's own WRITE round to most nodes so only the
	// reader's write-back can propagate the value.
	sys.Network().SetDropRule(func(from, to core.ProcessID, m core.Message, _ sim.Time) bool {
		return m.Kind() == core.KindWrite && from == ids[0] && to != ids[0] && to != ids[1]
	})
	werr := make(chan struct{}, 1)
	if err := w.Write(0, 3, func(core.VersionedValue, error) { werr <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(20 * delta); err != nil {
		t.Fatal(err)
	}
	// Write cannot complete (only 2 of 3 acks) — that's fine; the value
	// is at {writer, ids[1]} only. Now an atomic read must both see it
	// (quorum intersects) and install it at a majority.
	sys.Network().SetDropRule(nil)
	r := atNode(t, sys, ids[1])
	var got core.VersionedValue
	if err := r.Read(0, func(v core.VersionedValue, _ error) { got = v }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(20 * delta); err != nil {
		t.Fatal(err)
	}
	if got.SN != 1 {
		t.Fatalf("read %v, want the in-flight write's sn 1", got)
	}
	holders := 0
	for _, id := range sys.Network().PresentIDs() {
		if sys.Node(id).Snapshot().SN >= 1 {
			holders++
		}
	}
	if holders < 3 {
		t.Fatalf("write-back reached %d nodes, want majority ≥ 3", holders)
	}
}

func TestAtomicReadGuards(t *testing.T) {
	sys := newSystem(t, 5, nil, 0)
	_, joiner := sys.Spawn()
	j := joiner.(*atomicreg.Node)
	if err := j.Read(0, ignoreRead); err != core.ErrNotActive {
		t.Fatalf("read while joining = %v, want ErrNotActive", err)
	}
	n := atNode(t, sys, sys.ActiveIDs()[0])
	if err := n.Read(0, ignoreRead); err != nil {
		t.Fatal(err)
	}
	if err := n.Read(0, ignoreRead); err != core.ErrOpInProgress {
		t.Fatalf("second read = %v, want ErrOpInProgress", err)
	}
	// The atomic upgrade covers key 0 only: other keys are refused at
	// invocation, and done never runs.
	if err := n.Read(1, ignoreRead); err == nil {
		t.Fatal("read of key 1 accepted")
	}
	if err := n.Write(1, 5, func(core.VersionedValue, error) { t.Fatal("refused write completed") }); err == nil {
		t.Fatal("write of key 1 accepted")
	}
}

func TestJoinDelegates(t *testing.T) {
	sys := newSystem(t, 5, nil, 0)
	id, node := sys.Spawn()
	joined := false
	sys.OnActivate(func(p core.ProcessID) { joined = joined || p == id })
	if err := sys.RunFor(10 * delta); err != nil {
		t.Fatal(err)
	}
	if !joined || !node.Active() {
		t.Fatal("join did not complete through the wrapper")
	}
}

func TestNoInversionOnAdversarialSchedule(t *testing.T) {
	// The E11 schedule: a write propagates to one reader fast and to the
	// rest slowly; reader A (fast path) then reader B (slow path) read
	// sequentially. The regular register inverts; the atomic one must not.
	history, invs := runScriptedReaders(t, atomicreg.Factory(esyncreg.Options{}))
	if len(history.CheckRegular()) != 0 {
		t.Fatalf("atomic run not even regular: %v", history.CheckRegular()[0])
	}
	if invs != 0 {
		t.Fatalf("atomic register produced %d new/old inversions", invs)
	}
}

func TestRegularBaselineInvertsOnSameSchedule(t *testing.T) {
	history, invs := runScriptedReaders(t, esyncreg.Factory(esyncreg.Options{}))
	if len(history.CheckRegular()) != 0 {
		t.Fatalf("regular run violated regularity: %v", history.CheckRegular()[0])
	}
	if invs == 0 {
		t.Fatal("schedule failed to invert the regular register; scenario broken")
	}
}

// runScriptedReaders executes the shared E11 schedule against a factory
// and reports the history plus inversion count.
func runScriptedReaders(t *testing.T, factory core.NodeFactory) (*spec.History, int) {
	t.Helper()
	const slow = 200
	// p1 writer; p2 reader A; p3 reader B; p4, p5 replicas.
	model := netsim.ScriptedDelayModel{
		Base: netsim.FixedDelayModel{D: 1},
		Overrides: map[netsim.Route]sim.Duration{
			// The writer's WRITE reaches only A quickly.
			{From: 1, Kind: core.KindWrite}:        slow,
			{From: 1, To: 2, Kind: core.KindWrite}: 1,
			// A's quorum hears updated nodes fast; B's hears stale nodes
			// fast and updated nodes slowly.
			{From: 3, To: 2, Kind: core.KindReply}: slow,
			{From: 5, To: 2, Kind: core.KindReply}: slow,
			{From: 1, To: 3, Kind: core.KindReply}: slow,
			{From: 2, To: 3, Kind: core.KindReply}: slow,
		},
	}
	sys, err := dynsys.New(dynsys.Config{
		N:       5,
		Delta:   delta,
		Model:   model,
		Factory: factory,
		Seed:    5,
		Initial: core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	history := spec.NewHistory(core.VersionedValue{Val: 0, SN: 0})

	writer := sys.Node(1).(core.Ops)
	wOp := history.BeginWrite(1, sys.Now())
	if err := writer.Write(0, 1, func(v core.VersionedValue, _ error) {
		history.CompleteWrite(wOp, sys.Now(), v)
	}); err != nil {
		t.Fatal(err)
	}
	// Let the embedded read + fast WRITE to A land.
	if err := sys.RunFor(6); err != nil {
		t.Fatal(err)
	}
	read := func(id core.ProcessID) {
		op := history.BeginRead(id, sys.Now())
		r := sys.Node(id).(core.Ops)
		if err := r.Read(0, func(v core.VersionedValue, _ error) {
			history.CompleteRead(op, sys.Now(), v)
		}); err != nil {
			t.Fatal(err)
		}
		// Run until this read completes (sequential reads).
		for i := 0; i < 4*slow && !op.Completed; i++ {
			if err := sys.RunFor(1); err != nil {
				t.Fatal(err)
			}
		}
		if !op.Completed {
			t.Fatalf("read by %v never completed", id)
		}
	}
	read(2) // A
	// Strictly separate the reads in real time: an inversion requires
	// r1 to precede r2, not merely abut it at the same instant.
	if err := sys.RunFor(2); err != nil {
		t.Fatal(err)
	}
	read(3) // B
	if err := sys.RunFor(2 * slow); err != nil {
		t.Fatal(err)
	}
	return history, len(history.FindInversions())
}

// ignoreRead is a read's done callback for a test that does not look at
// the outcome.
func ignoreRead(core.VersionedValue, error) {}

// stepEnv is the Env of process 100 of five, driven by hand: it keeps the
// last message the node broadcast.
type stepEnv struct{ last core.Message }

func (e *stepEnv) ID() core.ProcessID                { return 100 }
func (e *stepEnv) Now() sim.Time                     { return 0 }
func (e *stepEnv) Send(core.ProcessID, core.Message) {}
func (e *stepEnv) Broadcast(m core.Message)          { e.last = m }
func (e *stepEnv) After(sim.Duration, func())        {}
func (e *stepEnv) Delta() sim.Duration               { return delta }
func (e *stepEnv) SystemSize() int                   { return 5 }
func (e *stepEnv) MarkActive()                       {}

// TestWriteBackNeedsDistinctAckers: a read's write-back completes only on
// ACKs from a majority of distinct processes; one process acknowledging
// it again and again counts once.
func TestWriteBackNeedsDistinctAckers(t *testing.T) {
	env := &stepEnv{}
	n := atomicreg.New(env, core.SpawnContext{Bootstrap: true, Initial: core.VersionedValue{Val: 0, SN: 0}}, esyncreg.Options{})
	n.Start()
	returned := false
	if err := n.Read(0, func(core.VersionedValue, error) { returned = true }); err != nil {
		t.Fatal(err)
	}
	rd, ok := env.last.(*core.ReadMsg)
	if !ok {
		t.Fatalf("a read broadcast %v, want a READ", env.last)
	}
	op := rd.Op
	latest := core.VersionedValue{Val: 6, SN: 2}
	for _, p := range []core.ProcessID{1, 2, 3} {
		n.Deliver(p, &core.ReplyMsg{From: p, Value: latest, Op: op})
	}
	if wb, ok := env.last.(*core.WriteMsg); !ok || wb.Value != latest {
		t.Fatalf("after a read quorum the node broadcast %v, want the write-back of %v", env.last, latest)
	}
	for range 3 {
		n.Deliver(1, &core.AckMsg{From: 1, SN: latest.SN})
	}
	n.Deliver(2, &core.AckMsg{From: 2, SN: latest.SN})
	if returned {
		t.Fatal("the read returned on ACKs from two processes, one of them repeated, below a majority of 3")
	}
	n.Deliver(3, &core.AckMsg{From: 3, SN: latest.SN})
	if !returned {
		t.Fatal("the read did not return on ACKs from a majority of distinct processes")
	}
}
