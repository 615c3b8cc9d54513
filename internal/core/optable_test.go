package core

import "testing"

func TestOpTableAllocatesAscendingIDs(t *testing.T) {
	type op struct{ reg RegisterID }
	tb := NewOpTable[op](0)
	if tb.LastIssued() != NoOp {
		t.Fatalf("fresh table LastIssued = %v, want NoOp", tb.LastIssued())
	}
	id1, o1 := tb.Begin()
	id2, o2 := tb.Begin()
	if id1 != 1 || id2 != 2 {
		t.Fatalf("Begin ids = %v, %v, want 1, 2", id1, id2)
	}
	if o1 == nil || o2 == nil || o1 == o2 {
		t.Fatalf("Begin entries not distinct: %p %p", o1, o2)
	}
	if got, ok := tb.Get(id1); !ok || got != o1 {
		t.Fatalf("Get(%v) = %p, %v", id1, got, ok)
	}
	if tb.Len() != 2 || tb.LastIssued() != id2 {
		t.Fatalf("Len = %d, LastIssued = %v", tb.Len(), tb.LastIssued())
	}
	ids := tb.IDs()
	if len(ids) != 2 || ids[0] != id1 || ids[1] != id2 {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestOpTableFinishReclaims(t *testing.T) {
	type op struct{ n int }
	tb := NewOpTable[op](0)
	id, _ := tb.Begin()
	tb.Finish(id)
	if tb.Len() != 0 {
		t.Fatalf("Len after Finish = %d", tb.Len())
	}
	if _, ok := tb.Get(id); ok {
		t.Fatalf("Get after Finish still finds %v", id)
	}
	tb.Finish(id) // double-finish is a no-op
	// IDs never repeat: the counter is not rewound by Finish.
	next, _ := tb.Begin()
	if next != id+1 {
		t.Fatalf("id after Finish = %v, want %v", next, id+1)
	}
}

func TestOpTableBoundsInFlight(t *testing.T) {
	type op struct{}
	tb := NewOpTable[op](2)
	a, _ := tb.Begin()
	tb.Begin()
	if !tb.Full() {
		t.Fatal("table with cap entries not Full")
	}
	tb.Finish(a)
	if tb.Full() {
		t.Fatal("table Full after reclaim")
	}
	// Zero capacity falls back to the global default.
	big := NewOpTable[op](0)
	if big.Full() {
		t.Fatal("default-capacity table is born full")
	}
}

// TestOpTableRecyclesRecords: a finished record comes back from the next
// Begin zeroed and under a fresh OpID, and the finished id stays finished.
func TestOpTableRecyclesRecords(t *testing.T) {
	type op struct {
		n    int
		done func()
	}
	tb := NewOpTable[op](0)
	id, o := tb.Begin()
	o.n, o.done = 7, func() {}
	tb.Finish(id)
	next, again := tb.Begin()
	if again != o {
		t.Fatalf("Begin after Finish made a new record %p, want the finished %p", again, o)
	}
	if again.n != 0 || again.done != nil {
		t.Fatalf("recycled record not zeroed: %+v", *again)
	}
	if next == id {
		t.Fatalf("recycled record reuses OpID %v", id)
	}
	if _, ok := tb.Get(id); ok {
		t.Fatalf("Get(%v) finds the finished op through its recycled record", id)
	}
	if got, ok := tb.Get(next); !ok || got != o {
		t.Fatalf("Get(%v) = %p, %v", next, got, ok)
	}
	if n := testing.AllocsPerRun(100, func() {
		id, _ := tb.Begin()
		tb.Finish(id)
	}); n != 0 {
		t.Fatalf("Begin and Finish of a recycled record allocate %v times, want 0", n)
	}
}
