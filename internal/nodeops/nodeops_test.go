package nodeops

import (
	"errors"
	"strings"
	"testing"
	"time"

	"churnreg/internal/core"
)

// plainNode is a core.Node that serves no operations.
type plainNode struct{}

func (*plainNode) Start()                               {}
func (*plainNode) Active() bool                         { return true }
func (*plainNode) Deliver(core.ProcessID, core.Message) {}
func (*plainNode) Snapshot() core.VersionedValue        { return core.VersionedValue{} }

// scriptedNode is a core.Node with core.Ops doing what the test scripts:
// refuse returns from the invocation; otherwise done runs at once with
// fail as its error, or, with hold set, is kept for the test to run.
type scriptedNode struct {
	plainNode
	refuse error
	fail   error
	hold   bool
	held   func()
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
}

func TestInvocationErrorIsReturned(t *testing.T) {
	n := &scriptedNode{refuse: core.ErrNotActive}
	if _, err := ReadKey(inline(n), 1, wait); err != core.ErrNotActive {
		t.Fatalf("read: %v", err)
	}
	if _, err := WriteKey(inline(n), 1, 1, wait); err != core.ErrNotActive {
		t.Fatalf("write: %v", err)
	}
	// A node that is gone fails the Invoke itself.
	gone := errors.New("gone")
	dead := func(func(core.Node)) error { return gone }
	if _, err := WriteKey(dead, 1, 1, wait); err != gone {
		t.Fatalf("write on a gone node: %v", err)
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
}

func TestNodeWithoutOps(t *testing.T) {
	n := &plainNode{}
	if _, err := ReadKey(inline(n), 1, wait); err == nil || !strings.Contains(err.Error(), "serves no operations") {
		t.Fatalf("read: %v", err)
	}
	if _, err := WriteKey(inline(n), 1, 1, wait); err == nil {
		t.Fatal("write accepted")
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
