package core

import "sort"

// OpTable tracks one node's in-flight client operations, keyed by OpID.
// It owns the node's operation counter: Begin allocates the next OpID
// (starting at 1 — 0 is NoOp, the join) and inserts a zero-valued entry;
// Finish reclaims it. Every protocol embeds one, parameterized by its own
// per-operation state struct, so the sequentiality the paper assumes is
// lifted the same way everywhere: many entries may be live at once, across
// keys and pipelined within a key.
//
// The table is deliberately bounded (MaxInFlightOps unless overridden):
// an unreachable quorum must surface as backpressure at the invoking
// node, not as an unbounded map. Like all protocol state it is confined
// to the node's single event loop and needs no locks.
//
// Records are recycled, OpIDs never: Finish zeroes a record and keeps it
// on a free list, and a later Begin hands it back under a fresh OpID, so
// a node serving operations one after another allocates no record after
// its first; the free list holds no more records than were ever in flight
// at once. A message naming a finished OpID misses in Get even when its
// record now serves another operation. A caller must therefore copy what
// it still needs (the done callback, the result) out of a record before
// it calls Finish.
type OpTable[T any] struct {
	last OpID
	ops  map[OpID]*T
	free []*T
	cap  int
}

// NewOpTable builds a table bounded at capacity entries (MaxInFlightOps
// when capacity <= 0).
func NewOpTable[T any](capacity int) *OpTable[T] {
	if capacity <= 0 {
		capacity = MaxInFlightOps
	}
	return &OpTable[T]{ops: make(map[OpID]*T), cap: capacity}
}

// Full reports whether Begin would exceed the table's bound — the
// condition protocols translate into ErrOpInProgress.
func (t *OpTable[T]) Full() bool { return len(t.ops) >= t.cap }

// Begin allocates the next OpID and its zero-valued entry, a recycled
// one when a finished entry is free. Callers check Full first; Begin
// itself never refuses (a protocol mid-handshake may legitimately add the
// one entry that crosses the bound).
func (t *OpTable[T]) Begin() (OpID, *T) {
	t.last++
	var o *T
	if n := len(t.free); n > 0 {
		o, t.free = t.free[n-1], t.free[:n-1]
	} else {
		o = new(T)
	}
	t.ops[t.last] = o
	return t.last, o
}

// Get returns the entry for id, if it is still in flight. A miss means
// the message that prompted the lookup is stale (its operation completed
// or never existed here) and must be ignored.
func (t *OpTable[T]) Get(id OpID) (*T, bool) {
	o, ok := t.ops[id]
	return o, ok
}

// Finish reclaims id's entry: it zeroes the record and frees it for a
// later Begin. Finishing an absent id is a no-op, so completion paths
// need not guard against double delivery.
func (t *OpTable[T]) Finish(id OpID) {
	o, ok := t.ops[id]
	if !ok {
		return
	}
	delete(t.ops, id)
	var zero T
	*o = zero
	t.free = append(t.free, o)
}

// Len returns the number of in-flight operations.
func (t *OpTable[T]) Len() int { return len(t.ops) }

// LastIssued returns the most recently allocated OpID (0 if none — the
// state in which the join, op 0, is still the node's newest operation).
func (t *OpTable[T]) LastIssued() OpID { return t.last }

// IDs returns the in-flight OpIDs in ascending (allocation) order — the
// deterministic iteration order fan-out paths need.
func (t *OpTable[T]) IDs() []OpID {
	ids := make([]OpID, 0, len(t.ops))
	for id := range t.ops {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
