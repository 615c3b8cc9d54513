package multiwriter_test

import (
	"errors"
	"testing"

	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/multiwriter"
	"churnreg/internal/netsim"
	"churnreg/internal/sim"
	"churnreg/internal/spec"
)

const delta = 5

func newSystem(t *testing.T, n int, churnRate float64) *dynsys.System {
	t.Helper()
	sys, err := dynsys.New(dynsys.Config{
		N:         n,
		Delta:     delta,
		Model:     netsim.SynchronousModel{Delta: delta},
		Factory:   multiwriter.Factory(),
		Seed:      9,
		ChurnRate: churnRate,
		Initial:   core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func mwNode(t *testing.T, sys *dynsys.System, id core.ProcessID) *multiwriter.Node {
	t.Helper()
	n, ok := sys.Node(id).(*multiwriter.Node)
	if !ok {
		t.Fatalf("node %v is %T", id, sys.Node(id))
	}
	return n
}

func holders(sys *dynsys.System) []core.ProcessID {
	var out []core.ProcessID
	for _, id := range sys.Network().PresentIDs() {
		if n, ok := sys.Node(id).(*multiwriter.Node); ok && n.Holder() {
			out = append(out, id)
		}
	}
	return out
}

func TestFirstAcquireWins(t *testing.T) {
	sys := newSystem(t, 5, 0)
	n := mwNode(t, sys, 1)
	won := false
	if err := n.Acquire(func(w bool) { won = w }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(3 * delta); err != nil {
		t.Fatal(err)
	}
	if !won || !n.Holder() {
		t.Fatal("uncontended claim did not win")
	}
	if got := holders(sys); len(got) != 1 {
		t.Fatalf("holders = %v, want exactly p1", got)
	}
}

func TestWriteRequiresToken(t *testing.T) {
	sys := newSystem(t, 5, 0)
	n := mwNode(t, sys, 2)
	if err := n.Write(0, 1, ignoreWrite); !errors.Is(err, multiwriter.ErrNotHolder) {
		t.Fatalf("tokenless write = %v, want ErrNotHolder", err)
	}
	if err := n.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(3 * delta); err != nil {
		t.Fatal(err)
	}
	if err := n.Write(0, 1, ignoreWrite); err != nil {
		t.Fatalf("holder write = %v", err)
	}
}

func TestContendedClaimHasOneWinner(t *testing.T) {
	sys := newSystem(t, 5, 0)
	a := mwNode(t, sys, 1)
	b := mwNode(t, sys, 2)
	var aWon, bWon bool
	if err := a.Acquire(func(w bool) { aWon = w }); err != nil {
		t.Fatal(err)
	}
	if err := b.Acquire(func(w bool) { bWon = w }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(4 * delta); err != nil {
		t.Fatal(err)
	}
	// Same-tick claims: the smaller ID must win.
	if !aWon || bWon {
		t.Fatalf("contention outcome aWon=%v bWon=%v, want p1 only", aWon, bWon)
	}
	if got := holders(sys); len(got) != 1 || got[0] != 1 {
		t.Fatalf("holders = %v, want [p1]", got)
	}
}

func TestEarlierStampBeatsSmallerID(t *testing.T) {
	sys := newSystem(t, 5, 0)
	a := mwNode(t, sys, 1)
	b := mwNode(t, sys, 2)
	// p2 claims first; p1 claims one tick later: p2's stamp wins despite
	// the larger ID.
	var aWon, bWon bool
	if err := b.Acquire(func(w bool) { bWon = w }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(1); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(func(w bool) { aWon = w }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(4 * delta); err != nil {
		t.Fatal(err)
	}
	if !bWon || aWon {
		t.Fatalf("stamp priority broken: aWon=%v bWon=%v", aWon, bWon)
	}
}

func TestAcquireAgainstLiveHolderFailsFast(t *testing.T) {
	sys := newSystem(t, 5, 0)
	a := mwNode(t, sys, 1)
	if err := a.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(4 * delta); err != nil { // holder beats reached all
		t.Fatal(err)
	}
	b := mwNode(t, sys, 2)
	won, called := false, false
	if err := b.Acquire(func(w bool) { won, called = w, true }); err != nil {
		t.Fatal(err)
	}
	if !called || won {
		t.Fatalf("claim against live holder: called=%v won=%v, want immediate loss", called, won)
	}
}

func TestReleaseMakesTokenClaimable(t *testing.T) {
	sys := newSystem(t, 5, 0)
	a := mwNode(t, sys, 1)
	if err := a.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(3 * delta); err != nil {
		t.Fatal(err)
	}
	a.Release()
	if err := sys.RunFor(delta); err != nil { // free-beat propagates
		t.Fatal(err)
	}
	b := mwNode(t, sys, 2)
	won := false
	if err := b.Acquire(func(w bool) { won = w }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(3 * delta); err != nil {
		t.Fatal(err)
	}
	if !won {
		t.Fatal("claim after release did not win")
	}
	if got := holders(sys); len(got) != 1 || got[0] != 2 {
		t.Fatalf("holders = %v, want [p2]", got)
	}
}

// TestTransferRefusedWhileWritesInFlight: a holder must drain its own
// pipeline before handing the token over — an in-flight write would race
// the successor's first write for a sequence number.
func TestTransferRefusedWhileWritesInFlight(t *testing.T) {
	sys := newSystem(t, 5, 0)
	a := mwNode(t, sys, 1)
	if err := a.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(3 * delta); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(1, 42, ignoreWrite); err != nil {
		t.Fatal(err)
	}
	if err := a.Transfer(3); !errors.Is(err, core.ErrOpInProgress) {
		t.Fatalf("Transfer with a write in flight = %v, want ErrOpInProgress", err)
	}
	if err := sys.RunFor(2 * delta); err != nil { // the write's δ elapses
		t.Fatal(err)
	}
	if got := a.PendingOps(); got != 0 {
		t.Fatalf("PendingOps after drain = %d", got)
	}
	if err := a.Transfer(3); err != nil {
		t.Fatalf("Transfer after drain = %v, want nil", err)
	}
}

func TestTransferHandsTokenDirectly(t *testing.T) {
	sys := newSystem(t, 5, 0)
	a := mwNode(t, sys, 1)
	if err := a.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(3 * delta); err != nil {
		t.Fatal(err)
	}
	if err := a.Transfer(3); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(delta); err != nil {
		t.Fatal(err)
	}
	if a.Holder() {
		t.Fatal("transferrer still holds")
	}
	if !mwNode(t, sys, 3).Holder() {
		t.Fatal("successor did not receive the token")
	}
	if err := mwNode(t, sys, 3).Write(0, 5, ignoreWrite); err != nil {
		t.Fatalf("successor write: %v", err)
	}
}

func TestHolderDeathRecovers(t *testing.T) {
	sys := newSystem(t, 5, 0)
	a := mwNode(t, sys, 1)
	if err := a.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(3 * delta); err != nil {
		t.Fatal(err)
	}
	sys.KillProcess(1)
	// Beats stop; after 4δ staleness + 2δ claim the token is recoverable.
	if err := sys.RunFor(5 * delta); err != nil {
		t.Fatal(err)
	}
	b := mwNode(t, sys, 2)
	won := false
	if err := b.Acquire(func(w bool) { won = w }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(3 * delta); err != nil {
		t.Fatal(err)
	}
	if !won {
		t.Fatal("token not recovered after holder death")
	}
}

func TestJoinerCannotClaimBeforeActive(t *testing.T) {
	sys := newSystem(t, 3, 0)
	_, node := sys.Spawn()
	j := node.(*multiwriter.Node)
	if err := j.Acquire(nil); !errors.Is(err, core.ErrNotActive) {
		t.Fatalf("joining claim = %v, want ErrNotActive", err)
	}
}

// TestRotatingWritersStayRegular is the end-to-end multi-writer story:
// several processes take turns acquiring the token and writing; the
// recorded history must satisfy the write discipline and regularity.
func TestRotatingWritersStayRegular(t *testing.T) {
	sys := newSystem(t, 6, 0)
	history := spec.NewHistory(core.VersionedValue{Val: 0, SN: 0})

	for round := 0; round < 8; round++ {
		writerID := core.ProcessID(round%6 + 1)
		w := mwNode(t, sys, writerID)
		won := false
		if err := w.Acquire(func(ok bool) { won = ok }); err != nil {
			t.Fatal(err)
		}
		if err := sys.RunFor(3 * delta); err != nil {
			t.Fatal(err)
		}
		if !won {
			t.Fatalf("round %d: %v failed to acquire", round, writerID)
		}
		op := history.BeginWrite(writerID, sys.Now())
		if err := w.Write(0, core.Value(1000+round), func(core.VersionedValue, error) {
			history.CompleteWrite(op, sys.Now(), w.Snapshot())
		}); err != nil {
			t.Fatal(err)
		}
		if err := sys.RunFor(delta); err != nil {
			t.Fatal(err)
		}
		// A random other process reads after the write completed.
		readerID := core.ProcessID((round+3)%6 + 1)
		r := mwNode(t, sys, readerID)
		rOp := history.BeginRead(readerID, sys.Now())
		v, err := readLocal(r)
		if err != nil {
			t.Fatal(err)
		}
		history.CompleteRead(rOp, sys.Now(), v)
		if v.Val != core.Value(1000+round) {
			t.Fatalf("round %d: read %v, want value %d", round, v, 1000+round)
		}
		w.Release()
		if err := sys.RunFor(2 * delta); err != nil {
			t.Fatal(err)
		}
	}
	if err := history.ValidateWrites(); err != nil {
		t.Fatalf("rotating writers broke the write discipline: %v", err)
	}
	if viols := history.CheckRegular(); len(viols) != 0 {
		t.Fatalf("multi-writer run violated regularity: %v", viols[0])
	}
}

// TestNeverTwoHolders sweeps contention timings and asserts the safety
// invariant at every instant: at most one holder.
func TestNeverTwoHolders(t *testing.T) {
	for offset := 0; offset <= 3*delta; offset++ {
		sys := newSystem(t, 5, 0)
		a := mwNode(t, sys, 1)
		b := mwNode(t, sys, 2)
		if err := a.Acquire(nil); err != nil {
			t.Fatal(err)
		}
		if err := sys.RunFor(sim.Duration(offset)); err != nil {
			t.Fatal(err)
		}
		_ = b.Acquire(nil) // may fail fast; that's fine
		for step := 0; step < 8*delta; step++ {
			if err := sys.RunFor(1); err != nil {
				t.Fatal(err)
			}
			if h := holders(sys); len(h) > 1 {
				t.Fatalf("offset %d, step %d: two holders %v", offset, step, h)
			}
		}
	}
}

// readLocal runs a local read of register 0, which completes before Read
// returns; ⊥ with the error when the node refuses it.
func readLocal(n core.Ops) (core.VersionedValue, error) {
	v := core.Bottom()
	err := n.Read(0, func(got core.VersionedValue, _ core.ProcessID, _ error) { v = got })
	return v, err
}

// ignoreWrite is a write's done callback for a test that does not look
// at the outcome.
func ignoreWrite(core.VersionedValue, error) {}
