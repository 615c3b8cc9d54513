package abd_test

// Deterministic simulator tests for the one-round read fast path: when a
// read's quorum replies all agree, the write-back round is skipped
// (arXiv:1601.04820); when they disagree, the freshest value is written
// back to a quorum before the read returns, so no later read can observe
// an older value than one already returned (no new/old inversion).

import (
	"testing"

	"churnreg/internal/core"
	"churnreg/internal/sim"
)

func TestReadFastPathWhenQuorumAgrees(t *testing.T) {
	sys := newSystem(t, 5, 0)
	ids := sys.ActiveIDs()
	w := abdNode(t, sys, ids[0])
	if err := w.Write(0, 21, ignoreWrite); err != nil {
		t.Fatal(err)
	}
	// Run well past the write: the broadcast reaches every present
	// process within δ, so all five replicas store ⟨21, 1⟩.
	if err := sys.RunFor(4 * delta); err != nil {
		t.Fatal(err)
	}
	r := abdNode(t, sys, ids[3])
	var got core.VersionedValue
	if err := r.Read(0, func(v core.VersionedValue, _ error) { got = v }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(4 * delta); err != nil {
		t.Fatal(err)
	}
	if got.Val != 21 || got.SN != 1 {
		t.Fatalf("read %v, want ⟨21,#1⟩", got)
	}
	fast, slow := r.ReadPathCounts()
	if fast != 1 || slow != 0 {
		t.Fatalf("read paths = (fast %d, slow %d), want the agreed quorum to skip the write-back (1, 0)", fast, slow)
	}
}

func TestReadHeavyWorkloadIsAllFastPath(t *testing.T) {
	// The acceptance workload for the fast-path counter: a read-heavy
	// phase over a settled value must be served entirely in one round.
	sys := newSystem(t, 5, 0)
	ids := sys.ActiveIDs()
	if err := abdNode(t, sys, ids[0]).Write(0, 99, ignoreWrite); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(4 * delta); err != nil {
		t.Fatal(err)
	}
	const reads = 20
	completed := 0
	for i := 0; i < reads; i++ {
		r := abdNode(t, sys, ids[i%len(ids)])
		if err := r.Read(0, func(v core.VersionedValue, _ error) {
			completed++
			if v.Val != 99 {
				t.Errorf("read %d: %v, want 99", i, v)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := sys.RunFor(3 * delta); err != nil {
			t.Fatal(err)
		}
	}
	if completed != reads {
		t.Fatalf("completed %d/%d reads", completed, reads)
	}
	var fast, slow uint64
	for _, id := range ids {
		f, s := abdNode(t, sys, id).ReadPathCounts()
		fast, slow = fast+f, slow+s
	}
	if fast != reads || slow != 0 {
		t.Fatalf("read paths = (fast %d, slow %d), want all %d reads one-round", fast, slow, reads)
	}
}

func TestReadDisagreementPaysWriteBack(t *testing.T) {
	// Force a mixed quorum: the WRITE reaches three of five replicas, and
	// the reader is one of the two it missed. Its quorum disagrees, so
	// the read must run the write-back round — and afterwards a quorum
	// stores the returned value.
	sys := newSystem(t, 5, 0)
	ids := sys.ActiveIDs()
	w := abdNode(t, sys, ids[0])
	dropTo := map[core.ProcessID]bool{ids[3]: true, ids[4]: true}
	sys.Network().SetDropRule(func(from, to core.ProcessID, m core.Message, _ sim.Time) bool {
		return m.Kind() == core.KindWrite && from == ids[0] && dropTo[to]
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
	if err := sys.RunFor(6 * delta); err != nil {
		t.Fatal(err)
	}
	if got.SN != 1 {
		t.Fatalf("read %v, want sn 1", got)
	}
	fast, slow := r.ReadPathCounts()
	if slow != 1 || fast != 0 {
		t.Fatalf("read paths = (fast %d, slow %d), want the mixed quorum to write back (0, 1)", fast, slow)
	}
	// The write-back must have installed ⟨5, 1⟩ at a majority: the two
	// dropped replicas learn it from the reader's WRITE round.
	have := 0
	for _, id := range sys.ActiveIDs() {
		if sys.Node(id).Snapshot().SN >= 1 {
			have++
		}
	}
	if have < 3 {
		t.Fatalf("only %d replicas store the read value after write-back, want a majority", have)
	}
}

func TestNoNewOldInversionWithIncompleteWrite(t *testing.T) {
	// The schedule that separates atomic from regular: a WRITE that
	// reaches exactly ONE replica and never completes. Reader A's quorum
	// includes that replica, so A returns the new value via the slow
	// path; reader B reads after A completes and must NOT see the old
	// value (new/old inversion) — the write-back is what forbids it.
	sys := newSystem(t, 5, 0)
	ids := sys.ActiveIDs()
	writer, holder := ids[0], ids[2]
	readerA, readerB := ids[1], ids[4]
	sys.Network().SetDropRule(func(from, to core.ProcessID, m core.Message, _ sim.Time) bool {
		// The writer's WRITE round reaches only `holder`...
		if m.Kind() == core.KindWrite && from == writer && to != holder {
			return true
		}
		// ...and reader A hears REPLYs only from {A, writer, holder}, so
		// its quorum is exactly those three — a mixed quorum by
		// construction (the writer stored locally at invocation).
		if m.Kind() == core.KindReply && to == readerA && (from == ids[3] || from == ids[4]) {
			return true
		}
		return false
	})
	if err := abdNode(t, sys, writer).Write(0, 9, ignoreWrite); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(3 * delta); err != nil {
		t.Fatal(err)
	}
	a := abdNode(t, sys, readerA)
	var gotA core.VersionedValue
	doneA := false
	if err := a.Read(0, func(v core.VersionedValue, _ error) { gotA, doneA = v, true }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(6 * delta); err != nil {
		t.Fatal(err)
	}
	if !doneA {
		t.Fatal("reader A did not complete")
	}
	if gotA.SN != 1 || gotA.Val != 9 {
		t.Fatalf("reader A got %v, want the incomplete write's ⟨9,#1⟩", gotA)
	}
	if fast, slow := a.ReadPathCounts(); slow != 1 || fast != 0 {
		t.Fatalf("reader A paths = (fast %d, slow %d), want slow-path write-back", fast, slow)
	}
	// B starts strictly after A returned. Its quorum is unconstrained —
	// any 3 of 5 — and every choice must now contain ⟨9,#1⟩.
	b := abdNode(t, sys, readerB)
	var gotB core.VersionedValue
	doneB := false
	if err := b.Read(0, func(v core.VersionedValue, _ error) { gotB, doneB = v, true }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(6 * delta); err != nil {
		t.Fatal(err)
	}
	if !doneB {
		t.Fatal("reader B did not complete")
	}
	if gotB.SN < gotA.SN {
		t.Fatalf("new/old inversion: read after ⟨%v⟩ returned ⟨%v⟩", gotA, gotB)
	}
}

func TestReadMonotonicityUnderChurnAndConcurrentWrites(t *testing.T) {
	// Atomicity's observable face under churn: across rounds, a read that
	// starts after another read returned must not return an older value,
	// even with a write in flight and processes being replaced. Seeded,
	// so the schedule (and any failure) is deterministic.
	sys := newSystem(t, 10, 0.005)
	val := core.Value(100)
	var lastReturned core.VersionedValue
	rounds, completedPairs := 8, 0
	for round := 0; round < rounds; round++ {
		ids := sys.ActiveIDs()
		if len(ids) < 3 {
			break // churn consumed the bootstrap population
		}
		w, ra, rb := ids[0], ids[1%len(ids)], ids[2%len(ids)]
		val++
		// Kick off a write and read WHILE it is in flight.
		_ = abdNode(t, sys, w).Write(0, val, ignoreWrite)
		if err := sys.RunFor(2); err != nil {
			t.Fatal(err)
		}
		var gotA core.VersionedValue
		doneA := false
		_ = abdNode(t, sys, ra).Read(0, func(v core.VersionedValue, _ error) { gotA, doneA = v, true })
		if err := sys.RunFor(6 * delta); err != nil {
			t.Fatal(err)
		}
		if !doneA {
			continue // reader churned out mid-operation; nothing to compare
		}
		if gotA.SN < lastReturned.SN {
			t.Fatalf("round %d: read A returned %v after an earlier read returned %v", round, gotA, lastReturned)
		}
		lastReturned = gotA
		var gotB core.VersionedValue
		doneB := false
		_ = abdNode(t, sys, rb).Read(0, func(v core.VersionedValue, _ error) { gotB, doneB = v, true })
		if err := sys.RunFor(6 * delta); err != nil {
			t.Fatal(err)
		}
		if !doneB {
			continue
		}
		if gotB.SN < gotA.SN {
			t.Fatalf("round %d: new/old inversion under churn: B read %v after A read %v", round, gotB, gotA)
		}
		lastReturned = gotB
		completedPairs++
	}
	if completedPairs == 0 {
		t.Fatal("no read pair completed; the schedule exercised nothing")
	}
	// Both paths should have been exercised across the run: concurrent
	// writes force disagreement somewhere, settled rounds agree.
	var fast, slow uint64
	sys.ForEachNode(func(_ core.ProcessID, n core.Node) {
		if c, ok := n.(core.ReadPathCounter); ok {
			f, s := c.ReadPathCounts()
			fast, slow = fast+f, slow+s
		}
	})
	if fast+slow == 0 {
		t.Fatal("no reads counted")
	}
	t.Logf("read paths under churn: fast %d, slow %d (pairs %d)", fast, slow, completedPairs)
}
