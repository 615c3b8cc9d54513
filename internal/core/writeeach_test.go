package core

import (
	"errors"
	"testing"
)

// scriptedOps is a core.Ops whose writes do what the test scripts: a key
// in refuse is refused at invocation; any other write is accepted and
// completes when the test calls finish — with the error fail names for
// its key, else with ⟨v, sn = key⟩.
type scriptedOps struct {
	refuse  map[RegisterID]error
	fail    map[RegisterID]error
	invoked []RegisterID
	pending []func()
}

func (s *scriptedOps) Read(RegisterID, func(VersionedValue, ProcessID, error)) error {
	panic("scriptedOps: no reads")
}

func (s *scriptedOps) Write(reg RegisterID, v Value, done func(VersionedValue, error)) error {
	s.invoked = append(s.invoked, reg)
	if err := s.refuse[reg]; err != nil {
		return err
	}
	s.pending = append(s.pending, func() {
		if err := s.fail[reg]; err != nil {
			done(Bottom(), err)
			return
		}
		done(VersionedValue{Val: v, SN: SeqNum(reg)}, nil)
	})
	return nil
}

func (s *scriptedOps) WriteBatch(entries []KeyedWrite, done func([]KeyedValue, error)) error {
	return WriteEach(s, entries, done)
}

// finish completes every accepted write, in invocation order.
func (s *scriptedOps) finish() {
	p := s.pending
	s.pending = nil
	for _, f := range p {
		f()
	}
}

// batchOf is the batch writing 10·k to each key k.
func batchOf(keys ...RegisterID) []KeyedWrite {
	out := make([]KeyedWrite, len(keys))
	for i, k := range keys {
		out[i] = KeyedWrite{Reg: k, Val: Value(10 * k)}
	}
	return out
}

// batchResult records every call of a batch's done callback.
type batchResult struct {
	calls int
	kvs   []KeyedValue
	err   error
}

func (r *batchResult) done(kvs []KeyedValue, err error) {
	r.calls++
	r.kvs, r.err = kvs, err
}

func TestWriteEachRefusalSettlesEveryEntry(t *testing.T) {
	refused := errors.New("refused")
	ops := &scriptedOps{refuse: map[RegisterID]error{3: refused}}
	var r batchResult
	if err := WriteEach(ops, batchOf(1, 2, 3, 4), r.done); err != nil {
		t.Fatal(err)
	}
	if len(ops.invoked) != 3 {
		t.Fatalf("invoked %v; the refusal at key 3 must stop the batch", ops.invoked)
	}
	if r.calls != 0 {
		t.Fatal("done ran before the accepted entries settled")
	}
	ops.finish()
	if r.calls != 1 || r.err != refused {
		t.Fatalf("done ran %d times with %v, want once with the refusal", r.calls, r.err)
	}
	want := []KeyedValue{
		{1, VersionedValue{10, 1}}, {2, VersionedValue{20, 2}}, {3, Bottom()}, {4, Bottom()},
	}
	for i, kv := range r.kvs {
		if kv != want[i] {
			t.Fatalf("entry %d = %v, want %v", i, kv, want[i])
		}
	}
}

func TestWriteEachAllRefusedSettlesAtOnce(t *testing.T) {
	busy := ErrOpInProgress
	ops := &scriptedOps{refuse: map[RegisterID]error{1: busy, 2: busy}}
	var r batchResult
	if err := WriteEach(ops, batchOf(1, 2), r.done); err != nil {
		t.Fatal(err)
	}
	if r.calls != 1 || r.err != busy {
		t.Fatalf("done ran %d times with %v before WriteEach returned, want once with %v", r.calls, r.err, busy)
	}
	for _, kv := range r.kvs {
		if !kv.Value.IsBottom() {
			t.Fatalf("refused entry %v carries a value", kv)
		}
	}
	ops.finish()
	if r.calls != 1 {
		t.Fatalf("done ran %d times", r.calls)
	}
}

func TestWriteEachFirstErrorWins(t *testing.T) {
	// Entries 1 and 2 are accepted and fail later, 2 before 1; entry 3 is
	// refused outright, before either. The batch reports the first error
	// delivered, whichever entry it came from.
	late, early := errors.New("late"), errors.New("early")
	ops := &scriptedOps{
		fail:   map[RegisterID]error{1: late, 2: early},
		refuse: map[RegisterID]error{3: ErrUnroutable},
	}
	var r batchResult
	if err := WriteEach(ops, batchOf(1, 2, 3), r.done); err != nil {
		t.Fatal(err)
	}
	ops.pending[0], ops.pending[1] = ops.pending[1], ops.pending[0]
	ops.finish()
	if r.calls != 1 || r.err != ErrUnroutable {
		t.Fatalf("done ran %d times with %v, want once with the refusal", r.calls, r.err)
	}
	ops = &scriptedOps{fail: map[RegisterID]error{1: late, 2: early}}
	r = batchResult{}
	if err := WriteEach(ops, batchOf(1, 2), r.done); err != nil {
		t.Fatal(err)
	}
	ops.pending[0], ops.pending[1] = ops.pending[1], ops.pending[0]
	ops.finish()
	if r.calls != 1 || r.err != early {
		t.Fatalf("done ran %d times with %v, want once with %v", r.calls, r.err, early)
	}
}

func TestWriteEachEmptyBatch(t *testing.T) {
	var r batchResult
	if err := WriteEach(&scriptedOps{}, nil, r.done); err == nil {
		t.Fatal("empty batch accepted")
	}
	if r.calls != 0 {
		t.Fatal("done ran for a refused batch")
	}
}
