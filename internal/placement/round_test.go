package placement_test

import (
	"slices"
	"testing"

	"churnreg/internal/core"
	"churnreg/internal/placement"
)

// vv is the value process id answers with in these tests.
func vv(id core.ProcessID, sn core.SeqNum) core.VersionedValue {
	return core.VersionedValue{Val: core.Value(id), SN: sn}
}

// TestRoundCountsEachProcessOnce: a scoped round refuses a process
// outside its scope, counts a process that answers twice once and keeps
// its more recent value, and is empty again once reopened.
func TestRoundCountsEachProcessOnce(t *testing.T) {
	var r placement.Round
	r.Open([]core.ProcessID{3, 1, 2}, 2)
	if r.Add(4, vv(4, 9)) {
		t.Fatal("Add accepted process 4, outside the scope {3, 1, 2}")
	}
	for _, a := range []core.VersionedValue{vv(2, 5), vv(2, 7), vv(2, 6)} {
		if !r.Add(2, a) {
			t.Fatalf("Add refused process 2, in the scope")
		}
	}
	if r.Done() {
		t.Fatal("three answers from process 2 made a quorum of 2")
	}
	if got := slices.Collect(r.Values); !slices.Equal(got, []core.VersionedValue{vv(2, 7)}) {
		t.Fatalf("values %v, want process 2's most recent, ⟨2, 7⟩, once", got)
	}
	r.Add(3, vv(3, 1))
	if !r.Done() {
		t.Fatal("answers from 2 and 3 did not make a quorum of 2")
	}
	// Positional over the scope: 3's answer comes before 2's.
	if got := slices.Collect(r.Values); !slices.Equal(got, []core.VersionedValue{vv(3, 1), vv(2, 7)}) {
		t.Fatalf("values %v, want 3's then 2's", got)
	}
	r.Reopen()
	if r.Done() || len(slices.Collect(r.Values)) != 0 {
		t.Fatalf("a reopened round still holds %v", slices.Collect(r.Values))
	}
	r.Add(1, vv(1, 1))
	if r.Done() {
		t.Fatal("a reopened round counted its earlier phase's answers")
	}
}

// TestRoundUnscopedKeepsArrivalOrder: an unscoped round counts every
// process in the order it answered, past the eight answers it holds
// inline (the simulator's default system has 20 processes).
func TestRoundUnscopedKeepsArrivalOrder(t *testing.T) {
	var r placement.Round
	r.Open(nil, 11)
	var want []core.VersionedValue
	for id := core.ProcessID(20); id > 8; id-- {
		if !r.Add(id, vv(id, 1)) {
			t.Fatalf("an unscoped round refused process %v", id)
		}
		want = append(want, vv(id, 1))
		if r.Done() != (len(want) >= 11) {
			t.Fatalf("after %d answers Done() = %v, want a quorum at 11", len(want), r.Done())
		}
	}
	if got := slices.Collect(r.Values); !slices.Equal(got, want) {
		t.Fatalf("values %v, want arrival order %v", got, want)
	}
}

// TestRoundAllocs pins a round's cost: opening one over a scope of three
// and counting its answers allocates nothing, and a round that outgrew
// its inline array keeps the larger one, so counting twelve answers again
// allocates nothing either.
func TestRoundAllocs(t *testing.T) {
	var r placement.Round
	scope := []core.ProcessID{1, 2, 3}
	if got := testing.AllocsPerRun(1000, func() {
		r.Open(scope, 2)
		for _, id := range scope {
			r.Add(id, vv(id, 1))
		}
	}); got != 0 {
		t.Fatalf("a round over a scope of three allocates %v times, want 0", got)
	}
	twelve := func() {
		r.Open(nil, 7)
		for id := core.ProcessID(1); id <= 12; id++ {
			r.Add(id, vv(id, 1))
		}
	}
	twelve()
	if got := testing.AllocsPerRun(1000, twelve); got != 0 {
		t.Fatalf("reopening a round that outgrew its inline array allocates %v times, want 0", got)
	}
}
