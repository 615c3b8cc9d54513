package nodeops

import (
	"errors"
	"strings"
	"testing"
	"time"

	"churnreg/internal/core"
)

// plainNode is a core.Node that serves no operations.
type plainNode struct{ activeAfter int }

func (*plainNode) Start()                               {}
func (*plainNode) Deliver(core.ProcessID, core.Message) {}
func (*plainNode) Snapshot() core.VersionedValue        { return core.VersionedValue{Val: 5} }

// Active reports true from its activeAfter-th call on.
func (n *plainNode) Active() bool {
	n.activeAfter--
	return n.activeAfter < 0
}

// scriptedNode is a core.Node with core.Ops doing what the test scripts:
// refuse returns from the invocation; otherwise done runs at once with
// fail as its error, or, with hold set, is kept for the test to run.
type scriptedNode struct {
	plainNode
	refuse error
	fail   error
	hold   bool
	held   func()
	// seen is the batch WriteBatch was invoked with.
	seen []core.KeyedWrite
}

func (s *scriptedNode) complete(f func()) {
	if s.hold {
		s.held = f
		return
	}
	f()
}

func (s *scriptedNode) Read(reg core.RegisterID, done func(core.VersionedValue, core.ProcessID, error)) error {
	if s.refuse != nil {
		return s.refuse
	}
	s.complete(func() { done(core.VersionedValue{Val: core.Value(reg), SN: 3}, 9, s.fail) })
	return nil
}

func (s *scriptedNode) Write(reg core.RegisterID, v core.Value, done func(core.VersionedValue, error)) error {
	if s.refuse != nil {
		return s.refuse
	}
	s.complete(func() { done(core.VersionedValue{Val: v, SN: core.SeqNum(reg)}, s.fail) })
	return nil
}

func (s *scriptedNode) WriteBatch(entries []core.KeyedWrite, done func([]core.KeyedValue, error)) error {
	s.seen = entries
	if s.refuse != nil {
		return s.refuse
	}
	out := make([]core.KeyedValue, len(entries))
	for i, e := range entries {
		out[i] = core.KeyedValue{Reg: e.Reg, Value: core.VersionedValue{Val: e.Val, SN: 1}}
	}
	s.complete(func() { done(out, s.fail) })
	return nil
}

func (s *scriptedNode) SnapshotKey(reg core.RegisterID) core.VersionedValue {
	return core.VersionedValue{Val: core.Value(reg), SN: 7}
}

func (s *scriptedNode) Keys() []core.RegisterID { return nil }

// inline is the Invoke of a node only the calling goroutine touches.
func inline(n core.Node) Invoke {
	return func(fn func(core.Node)) error {
		fn(n)
		return nil
	}
}

const wait = time.Second

func TestValuesAndServerPassThrough(t *testing.T) {
	n := &scriptedNode{}
	if v, err := ReadKey(inline(n), 4, wait); err != nil || v != (core.VersionedValue{Val: 4, SN: 3}) {
		t.Fatalf("read = %v, %v", v, err)
	}
	if vv, err := WriteKey(inline(n), 6, 60, wait); err != nil || vv != (core.VersionedValue{Val: 60, SN: 6}) {
		t.Fatalf("write = %v, %v", vv, err)
	}
	batch := []core.KeyedWrite{{Reg: 1, Val: 10}, {Reg: 2, Val: 20}}
	kvs, err := WriteBatch(inline(n), batch, wait)
	if err != nil || len(kvs) != 2 || kvs[1] != (core.KeyedValue{Reg: 2, Value: core.VersionedValue{Val: 20, SN: 1}}) {
		t.Fatalf("batch = %v, %v", kvs, err)
	}
}

func TestInvocationErrorIsReturned(t *testing.T) {
	n := &scriptedNode{refuse: core.ErrNotActive}
	if _, err := ReadKey(inline(n), 1, wait); err != core.ErrNotActive {
		t.Fatalf("read: %v", err)
	}
	if _, err := WriteKey(inline(n), 1, 1, wait); err != core.ErrNotActive {
		t.Fatalf("write: %v", err)
	}
	if _, err := WriteBatch(inline(n), []core.KeyedWrite{{Reg: 1}}, wait); err != core.ErrNotActive {
		t.Fatalf("batch: %v", err)
	}
	// A node that is gone fails the Invoke itself.
	gone := errors.New("gone")
	dead := func(func(core.Node)) error { return gone }
	if _, err := WriteKey(dead, 1, 1, wait); err != gone {
		t.Fatalf("write on a gone node: %v", err)
	}
	if _, err := SnapshotKey(dead, 1, wait); err != gone {
		t.Fatalf("snapshot on a gone node: %v", err)
	}
	if err := WaitActive(dead, time.Millisecond, wait); err != gone {
		t.Fatalf("wait on a gone node: %v", err)
	}
}

func TestErrorDeliveredInDone(t *testing.T) {
	n := &scriptedNode{fail: core.ErrUnroutable}
	if _, err := WriteKey(inline(n), 1, 1, wait); err != core.ErrUnroutable {
		t.Fatalf("write: %v", err)
	}
	if v, err := ReadKey(inline(n), 1, wait); err != core.ErrUnroutable || !v.IsBottom() {
		t.Fatalf("read: %v, %v", v, err)
	}
	if kvs, err := WriteBatch(inline(n), []core.KeyedWrite{{Reg: 1}}, wait); err != core.ErrUnroutable || kvs != nil {
		t.Fatalf("batch: %v, %v", kvs, err)
	}
}

func TestNodeWithoutOps(t *testing.T) {
	n := &plainNode{}
	if _, err := ReadKey(inline(n), 1, wait); err == nil || !strings.Contains(err.Error(), "serves no operations") {
		t.Fatalf("read: %v", err)
	}
	if _, err := WriteKey(inline(n), 1, 1, wait); err == nil {
		t.Fatal("write accepted")
	}
	// Snapshots need no core.Ops: key 0 falls back to Snapshot, other
	// keys of a node without KeyedSnapshotter are ⊥.
	if v, err := SnapshotKey(inline(n), 0, wait); err != nil || v.Val != 5 {
		t.Fatalf("snapshot of key 0 = %v, %v", v, err)
	}
	if v, err := SnapshotKey(inline(n), 1, wait); err != nil || !v.IsBottom() {
		t.Fatalf("snapshot of key 1 = %v, %v", v, err)
	}
	if v, err := SnapshotKey(inline(&scriptedNode{}), 2, wait); err != nil || v != (core.VersionedValue{Val: 2, SN: 7}) {
		t.Fatalf("keyed snapshot = %v, %v", v, err)
	}
}

func TestTimeoutAndLateDone(t *testing.T) {
	n := &scriptedNode{hold: true}
	if _, err := WriteKey(inline(n), 1, 1, 10*time.Millisecond); err != ErrTimeout {
		t.Fatalf("write: %v, want ErrTimeout", err)
	}
	// The operation completes after its caller gave up: the send to the
	// abandoned result channel must not block the node.
	late := make(chan struct{})
	go func() {
		n.held()
		close(late)
	}()
	select {
	case <-late:
	case <-time.After(wait):
		t.Fatal("a late done blocked")
	}
	if _, err := ReadKey(inline(n), 1, 10*time.Millisecond); err != ErrTimeout {
		t.Fatalf("read: %v, want ErrTimeout", err)
	}
}

func TestBatchValidation(t *testing.T) {
	n := &scriptedNode{}
	if _, err := WriteBatch(inline(n), nil, wait); err == nil {
		t.Fatal("empty batch accepted")
	}
	unsorted := []core.KeyedWrite{{Reg: 2}, {Reg: 1}}
	if _, err := WriteBatch(inline(n), unsorted, wait); err == nil {
		t.Fatal("unsorted batch accepted")
	}
	dup := []core.KeyedWrite{{Reg: 1}, {Reg: 1}}
	if _, err := WriteBatch(inline(n), dup, wait); err == nil {
		t.Fatal("batch naming a key twice accepted")
	}
	if n.seen != nil {
		t.Fatalf("an invalid batch reached the node: %v", n.seen)
	}
}

func TestWaitActive(t *testing.T) {
	if err := WaitActive(inline(&plainNode{activeAfter: 3}), 0, wait); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := WaitActive(inline(&plainNode{activeAfter: 1 << 30}), time.Millisecond, 20*time.Millisecond); err != ErrTimeout {
		t.Fatalf("wait on a node that never joins: %v, want ErrTimeout", err)
	}
}
