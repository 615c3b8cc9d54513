package syncreg_test

import (
	"errors"
	"testing"

	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/netsim"
	"churnreg/internal/sim"
	"churnreg/internal/syncreg"
)

const delta = 10

func newSystem(t *testing.T, n int, model netsim.DelayModel, opts syncreg.Options, churnRate float64) *dynsys.System {
	t.Helper()
	sys, err := dynsys.New(dynsys.Config{
		N:         n,
		Delta:     delta,
		Model:     model,
		Factory:   syncreg.Factory(opts),
		Seed:      1,
		ChurnRate: churnRate,
		Initial:   core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		t.Fatalf("dynsys.New: %v", err)
	}
	return sys
}

func syncNode(t *testing.T, sys *dynsys.System, id core.ProcessID) *syncreg.Node {
	t.Helper()
	n, ok := sys.Node(id).(*syncreg.Node)
	if !ok {
		t.Fatalf("node %v is %T, want *syncreg.Node", id, sys.Node(id))
	}
	return n
}

func TestBootstrapNodesActiveWithInitialValue(t *testing.T) {
	sys := newSystem(t, 3, netsim.SynchronousModel{Delta: delta}, syncreg.Options{}, 0)
	for _, id := range sys.ActiveIDs() {
		n := syncNode(t, sys, id)
		if !n.Active() {
			t.Fatalf("bootstrap node %v not active", id)
		}
		v, err := readLocal(n)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if v.SN != 0 || v.Val != 0 {
			t.Fatalf("initial value = %v, want ⟨0,#0⟩", v)
		}
	}
	if len(sys.ActiveIDs()) != 3 {
		t.Fatalf("active = %d, want 3", len(sys.ActiveIDs()))
	}
}

func TestJoinWithoutConcurrentWriteAdoptsCurrentValue(t *testing.T) {
	sys := newSystem(t, 3, netsim.SynchronousModel{Delta: delta}, syncreg.Options{}, 0)
	id, _ := sys.Spawn()
	joined := false
	sys.OnActivate(func(p core.ProcessID) { joined = joined || p == id })

	// Join takes at most 3δ: δ pre-wait + 2δ inquiry round.
	if err := sys.RunFor(3*delta + 1); err != nil {
		t.Fatal(err)
	}
	if !joined {
		t.Fatal("join did not complete within 3δ")
	}
	n := syncNode(t, sys, id)
	v, err := readLocal(n)
	if err != nil {
		t.Fatal(err)
	}
	if v.SN != 0 {
		t.Fatalf("joiner adopted %v, want initial ⟨0,#0⟩", v)
	}
	rec := sys.Tracker().Record(id)
	if got := rec.Activated.Sub(rec.Entered); got > 3*delta {
		t.Fatalf("join latency %d > 3δ", got)
	}
}

func TestWritePropagatesWithinDelta(t *testing.T) {
	sys := newSystem(t, 5, netsim.SynchronousModel{Delta: delta}, syncreg.Options{}, 0)
	ids := sys.ActiveIDs()
	writer := syncNode(t, sys, ids[0])
	done := false
	if err := writer.Write(0, 42, func(core.VersionedValue, error) { done = true }); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := sys.RunFor(delta); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("write did not return after δ")
	}
	for _, id := range ids {
		v, err := readLocal(syncNode(t, sys, id))
		if err != nil {
			t.Fatal(err)
		}
		if v.Val != 42 || v.SN != 1 {
			t.Fatalf("node %v holds %v after write completed, want ⟨42,#1⟩", id, v)
		}
	}
}

func TestReadIsLocalAndFast(t *testing.T) {
	sys := newSystem(t, 4, netsim.SynchronousModel{Delta: delta}, syncreg.Options{}, 0)
	before := sys.Network().Stats().Sent
	n := syncNode(t, sys, sys.ActiveIDs()[0])
	if _, err := readLocal(n); err != nil {
		t.Fatal(err)
	}
	if after := sys.Network().Stats().Sent; after != before {
		t.Fatalf("fast read sent %d messages, want 0", after-before)
	}
}

func TestReadBeforeJoinCompletesErrors(t *testing.T) {
	sys := newSystem(t, 3, netsim.SynchronousModel{Delta: delta}, syncreg.Options{}, 0)
	_, node := sys.Spawn()
	n := node.(*syncreg.Node)
	if _, err := readLocal(n); !errors.Is(err, core.ErrNotActive) {
		t.Fatalf("read before join = %v, want ErrNotActive", err)
	}
	if err := n.Write(0, 1, ignoreWrite); !errors.Is(err, core.ErrNotActive) {
		t.Fatalf("Write before join = %v, want ErrNotActive", err)
	}
}

// TestPipelinedWritesOnSameNode pins the relaxed sequentiality contract:
// several writes to ONE key may be in flight on one node; each draws the
// next sequence number at invocation, each completes on its own δ timer,
// and the op table drains to empty.
func TestPipelinedWritesOnSameNode(t *testing.T) {
	sys := newSystem(t, 3, netsim.SynchronousModel{Delta: delta}, syncreg.Options{}, 0)
	n := syncNode(t, sys, sys.ActiveIDs()[0])
	var sns []core.SeqNum
	for i := 1; i <= 3; i++ {
		if err := n.Write(core.DefaultRegister, core.Value(i*10), func(vv core.VersionedValue, _ error) {
			sns = append(sns, vv.SN)
		}); err != nil {
			t.Fatalf("pipelined write %d = %v, want nil", i, err)
		}
	}
	if got := n.PendingOps(); got != 3 {
		t.Fatalf("PendingOps mid-flight = %d, want 3", got)
	}
	if err := sys.RunFor(2 * delta); err != nil {
		t.Fatal(err)
	}
	if len(sns) != 3 || sns[0] != 1 || sns[1] != 2 || sns[2] != 3 {
		t.Fatalf("assigned sns = %v, want [1 2 3] (invocation order)", sns)
	}
	if got := n.PendingOps(); got != 0 {
		t.Fatalf("PendingOps after completion = %d, want 0 (leak)", got)
	}
	v, _ := readLocal(n)
	if v.SN != 3 || v.Val != 30 {
		t.Fatalf("after pipelined writes value = %v, want ⟨30,#3⟩", v)
	}
}

func TestSequentialWritesIncrementSN(t *testing.T) {
	sys := newSystem(t, 3, netsim.SynchronousModel{Delta: delta}, syncreg.Options{}, 0)
	n := syncNode(t, sys, sys.ActiveIDs()[0])
	for i := 1; i <= 5; i++ {
		if err := n.Write(0, core.Value(i*100), ignoreWrite); err != nil {
			t.Fatal(err)
		}
		if err := sys.RunFor(delta); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := readLocal(n)
	if v.SN != 5 || v.Val != 500 {
		t.Fatalf("after 5 writes value = %v, want ⟨500,#5⟩", v)
	}
}

func TestStaleWriteIgnored(t *testing.T) {
	sys := newSystem(t, 3, netsim.SynchronousModel{Delta: delta}, syncreg.Options{}, 0)
	ids := sys.ActiveIDs()
	n := syncNode(t, sys, ids[0])
	// Hand-deliver a stale WRITE (sn 0 when node already has sn 0).
	n.Deliver(ids[1], core.WriteMsg{From: ids[1], Value: core.VersionedValue{Val: 99, SN: 0}})
	v, _ := readLocal(n)
	if v.Val != 0 {
		t.Fatalf("stale write applied: %v", v)
	}
	if n.Stats().StaleWritesSeen != 1 {
		t.Fatalf("StaleWritesSeen = %d, want 1", n.Stats().StaleWritesSeen)
	}
}

func TestJoinerAppliesWriteWhileListening(t *testing.T) {
	// A WRITE delivered during the pre-wait is applied in listening mode,
	// and the join still broadcasts its single INQUIRY: the keyed
	// namespace removed the register≠⊥ fast path (a write on one key says
	// nothing about the others), so one-join-one-inquiry is an invariant.
	sys := newSystem(t, 3, netsim.SynchronousModel{Delta: delta}, syncreg.Options{}, 0)
	writer := syncNode(t, sys, sys.ActiveIDs()[0])

	id, node := sys.Spawn()
	n := node.(*syncreg.Node)
	_ = id
	// Write immediately: the joiner is present (listening) and included in
	// the broadcast snapshot.
	if err := writer.Write(0, 7, ignoreWrite); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(3*delta + 1); err != nil {
		t.Fatal(err)
	}
	if !n.Active() {
		t.Fatal("join did not complete")
	}
	if got := n.Stats().JoinInquiries; got != 1 {
		t.Fatalf("join inquiries = %d, want exactly 1", got)
	}
	v, _ := readLocal(n)
	if v.Val != 7 || v.SN != 1 {
		t.Fatalf("joiner value = %v, want ⟨7,#1⟩", v)
	}
}

func TestConcurrentJoinersDeferReplies(t *testing.T) {
	// Two processes join simultaneously; each receives the other's INQUIRY
	// while not active and must defer its reply to join completion
	// (Figure 1 lines 15, 10-11).
	sys := newSystem(t, 2, netsim.SynchronousModel{Delta: delta}, syncreg.Options{}, 0)
	_, na := sys.Spawn()
	_, nb := sys.Spawn()
	a := na.(*syncreg.Node)
	b := nb.(*syncreg.Node)
	if err := sys.RunFor(4 * delta); err != nil {
		t.Fatal(err)
	}
	if !a.Active() || !b.Active() {
		t.Fatal("concurrent joins did not complete")
	}
	if a.Stats().InquiriesDelayed == 0 && b.Stats().InquiriesDelayed == 0 {
		t.Fatal("no inquiry was deferred; concurrency not exercised")
	}
	va, _ := readLocal(a)
	vb, _ := readLocal(b)
	if va.IsBottom() || vb.IsBottom() {
		t.Fatalf("joiner returned ⊥: a=%v b=%v", va, vb)
	}
}

// TestFigure3aWithoutWaitReturnsStaleValue reproduces Figure 3a: without
// the wait(δ) at join line 02, a process joining just after a write can
// adopt the OLD value even though the write completes before its join does
// — its next read violates regularity.
func TestFigure3aWithoutWaitReturnsStaleValue(t *testing.T) {
	// Script: WRITEs crawl (exactly δ), INQUIRY/REPLY sprint (1 tick) —
	// except the joiner's INQUIRY to the writer p1, which takes the full δ
	// (all delays remain within the synchronous bound) and so lands after
	// the writer has departed. The joiner is p4 (IDs 1..3 bootstrap).
	model := netsim.ScriptedDelayModel{
		Base: netsim.FixedDelayModel{D: 1},
		Overrides: map[netsim.Route]sim.Duration{
			{Kind: core.KindWrite}:                   delta,
			{From: 4, To: 1, Kind: core.KindInquiry}: delta,
		},
	}
	sys := newSystem(t, 3, model, syncreg.Options{SkipInitialWait: true}, 0)
	writerID := sys.ActiveIDs()[0]
	writer := syncNode(t, sys, writerID)

	writeDone := false
	if err := writer.Write(0, 1, func(core.VersionedValue, error) { writeDone = true }); err != nil {
		t.Fatal(err)
	}
	// p_i enters just after the write started: it is not in the WRITE
	// broadcast snapshot.
	if err := sys.RunFor(1); err != nil {
		t.Fatal(err)
	}
	_, node := sys.Spawn()
	joiner := node.(*syncreg.Node)

	// The writer departs the moment its write returns (t = δ): churn in
	// action. The joiner's fast inquiry round has already collected stale
	// replies from p2/p3 (they deliver the slow WRITE only at t = δ), and
	// the only process that could contradict them is gone.
	if err := sys.RunUntil(delta); err != nil {
		t.Fatal(err)
	}
	if !writeDone {
		t.Fatal("write did not return by δ")
	}
	sys.KillProcess(writerID)

	if err := sys.RunFor(4 * delta); err != nil {
		t.Fatal(err)
	}
	if !joiner.Active() {
		t.Fatal("join did not complete")
	}
	v, err := readLocal(joiner)
	if err != nil {
		t.Fatal(err)
	}
	// The read happens strictly after write(1) returned, yet returns the
	// old value 0 — the violation Figure 3a depicts.
	if v.SN != 0 {
		t.Fatalf("expected the Figure 3a staleness (sn=0), got %v — scenario broken", v)
	}
}

// TestFigure3bWithWaitReturnsFreshValue is the same scenario with the
// paper's wait(δ) restored: the joiner's inquiry now reaches processes
// after they delivered the WRITE, so the join adopts the new value.
func TestFigure3bWithWaitReturnsFreshValue(t *testing.T) {
	model := netsim.ScriptedDelayModel{
		Base: netsim.FixedDelayModel{D: 1},
		Overrides: map[netsim.Route]sim.Duration{
			{Kind: core.KindWrite}:                   delta,
			{From: 4, To: 1, Kind: core.KindInquiry}: delta,
		},
	}
	sys := newSystem(t, 3, model, syncreg.Options{}, 0)
	writerID := sys.ActiveIDs()[0]
	writer := syncNode(t, sys, writerID)
	if err := writer.Write(0, 1, ignoreWrite); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(1); err != nil {
		t.Fatal(err)
	}
	_, node := sys.Spawn()
	joiner := node.(*syncreg.Node)
	// Same departure as the 3a scenario: the writer leaves once its write
	// returns. With the wait(δ) in place the joiner's inquiry reaches
	// p2/p3 only after they delivered the WRITE, so correctness survives.
	if err := sys.RunUntil(delta); err != nil {
		t.Fatal(err)
	}
	sys.KillProcess(writerID)
	if err := sys.RunFor(4 * delta); err != nil {
		t.Fatal(err)
	}
	if !joiner.Active() {
		t.Fatal("join did not complete")
	}
	v, err := readLocal(joiner)
	if err != nil {
		t.Fatal(err)
	}
	if v.SN != 1 || v.Val != 1 {
		t.Fatalf("with wait(δ) joiner read %v, want ⟨1,#1⟩", v)
	}
}

func TestJoinerServesInquiriesAfterActivation(t *testing.T) {
	sys := newSystem(t, 2, netsim.SynchronousModel{Delta: delta}, syncreg.Options{}, 0)
	_, first := sys.Spawn()
	a := first.(*syncreg.Node)
	if err := sys.RunFor(3*delta + 1); err != nil {
		t.Fatal(err)
	}
	if !a.Active() {
		t.Fatal("first joiner not active")
	}
	// Second joiner: the now-active first joiner must answer.
	_, second := sys.Spawn()
	b := second.(*syncreg.Node)
	if err := sys.RunFor(3*delta + 1); err != nil {
		t.Fatal(err)
	}
	if !b.Active() {
		t.Fatal("second joiner not active")
	}
	if a.Stats().InquiriesServed == 0 {
		t.Fatal("activated joiner never served an inquiry")
	}
}

func TestDeliverUnknownKindPanics(t *testing.T) {
	sys := newSystem(t, 1, netsim.SynchronousModel{Delta: delta}, syncreg.Options{}, 0)
	n := syncNode(t, sys, sys.ActiveIDs()[0])
	defer func() {
		if recover() == nil {
			t.Fatal("Deliver of esync-only message did not panic")
		}
	}()
	n.Deliver(99, core.ReadMsg{From: 99})
}

func TestChurnRunAllJoinsCompleteUnderBound(t *testing.T) {
	// c < 1/(3δ) = 1/30; use c = 0.02 with n = 30.
	sys := newSystem(t, 30, netsim.SynchronousModel{Delta: delta}, syncreg.Options{}, 0.02)
	if err := sys.RunFor(600); err != nil {
		t.Fatal(err)
	}
	completed, pending, abandoned := sys.Tracker().JoinStats()
	if completed == 0 {
		t.Fatal("no join completed under churn")
	}
	// Joins take 3δ; any pending join must be younger than 3δ.
	for _, r := range sys.Tracker().Records() {
		if r.Activated == 1<<62 {
			continue
		}
	}
	t.Logf("joins: completed=%d pending=%d abandoned=%d", completed, pending, abandoned)
	// Every process that stayed 3δ must have activated.
	for _, r := range sys.Tracker().Records() {
		if r.Activated != churnNeverActivated && r.Activated.Sub(r.Entered) > 3*delta {
			t.Fatalf("process %v join took %d > 3δ", r.ID, r.Activated.Sub(r.Entered))
		}
	}
}

// churnNeverActivated mirrors churn.NeverActivated without importing it in
// every assertion.
const churnNeverActivated = sim.Time(1<<63 - 1)

func TestWriterValueSurvivesTotalTurnover(t *testing.T) {
	// Run long enough that every bootstrap process has been replaced; the
	// register value must still be readable by current actives.
	sys := newSystem(t, 20, netsim.SynchronousModel{Delta: delta}, syncreg.Options{}, 0.02)
	writerID := sys.ActiveIDs()[0]
	writer := syncNode(t, sys, writerID)
	if err := writer.Write(0, 1234, ignoreWrite); err != nil {
		t.Fatal(err)
	}
	// Protect nothing; run 3000 ticks — expected turnover 0.02*20*3000 =
	// 1200 replacements over a population of 20.
	if err := sys.RunFor(3000); err != nil {
		t.Fatal(err)
	}
	// The original writer is almost surely gone; find any active process.
	ids := sys.ActiveIDs()
	if len(ids) == 0 {
		t.Fatal("no active processes after churn")
	}
	bootstrapGone := !sys.Present(writerID)
	v, err := readLocal(syncNode(t, sys, ids[len(ids)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if v.SN != 1 || v.Val != 1234 {
		t.Fatalf("value lost after turnover: %v (bootstrap writer gone: %v)", v, bootstrapGone)
	}
}

// readLocal runs a local read of register 0, which completes before Read
// returns; ⊥ with the error when the node refuses it.
func readLocal(n core.Ops) (core.VersionedValue, error) {
	v := core.Bottom()
	err := n.Read(0, func(got core.VersionedValue, _ error) { v = got })
	return v, err
}

// ignoreWrite is a write's done callback for a test that does not look
// at the outcome.
func ignoreWrite(core.VersionedValue, error) {}
