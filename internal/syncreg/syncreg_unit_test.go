package syncreg

// Unit tests drive a Node directly through a timer-capturing fake Env,
// pinning Figure 1/2 behaviour line by line without a network.

import (
	"reflect"
	"testing"

	"churnreg/internal/core"
	"churnreg/internal/sim"
)

type timer struct {
	d  sim.Duration
	fn func()
}

type fakeEnv struct {
	id    core.ProcessID
	n     int
	delta sim.Duration
	now   sim.Time
	sent  []struct {
		to  core.ProcessID
		msg core.Message
	}
	bcasts []core.Message
	timers []timer
	active bool
}

func (e *fakeEnv) ID() core.ProcessID { return e.id }
func (e *fakeEnv) Now() sim.Time      { return e.now }

// Send and Broadcast keep a copy of m, as a runtime's do: the node refills
// the record it sent from.
func (e *fakeEnv) Send(to core.ProcessID, m core.Message) {
	e.sent = append(e.sent, struct {
		to  core.ProcessID
		msg core.Message
	}{to, copied(m)})
}

func (e *fakeEnv) Broadcast(m core.Message) { e.bcasts = append(e.bcasts, copied(m)) }

// copied is a record of m's own.
func copied(m core.Message) core.Message {
	r := reflect.New(reflect.TypeOf(m).Elem())
	r.Elem().Set(reflect.ValueOf(m).Elem())
	return r.Interface().(core.Message)
}

func (e *fakeEnv) After(d sim.Duration, fn func()) {
	e.timers = append(e.timers, timer{d: d, fn: fn})
}

func (e *fakeEnv) Delta() sim.Duration { return e.delta }
func (e *fakeEnv) SystemSize() int     { return e.n }
func (e *fakeEnv) MarkActive()         { e.active = true }

// fire pops and runs the oldest pending timer, advancing the clock.
func (e *fakeEnv) fire(t *testing.T) {
	t.Helper()
	if len(e.timers) == 0 {
		t.Fatal("no pending timer")
	}
	tm := e.timers[0]
	e.timers = e.timers[1:]
	e.now = e.now.Add(tm.d)
	tm.fn()
}

var _ core.Env = (*fakeEnv)(nil)

func newJoining(opts Options) (*Node, *fakeEnv) {
	env := &fakeEnv{id: 100, n: 5, delta: 10}
	node := New(env, core.SpawnContext{}, opts)
	node.Start()
	return node, env
}

func TestJoinTimerSequence(t *testing.T) {
	n, env := newJoining(Options{})
	// Line 02: exactly one pending timer of δ (the pre-wait).
	if len(env.timers) != 1 || env.timers[0].d != 10 {
		t.Fatalf("pre-wait timer = %+v, want one of δ=10", env.timers)
	}
	env.fire(t) // pre-wait elapses; register still ⊥ → INQUIRY + 2δ wait
	if len(env.bcasts) != 1 || env.bcasts[0].Kind() != core.KindInquiry {
		t.Fatalf("no INQUIRY after pre-wait: %v", env.bcasts)
	}
	if len(env.timers) != 1 || env.timers[0].d != 20 {
		t.Fatalf("inquiry window timer = %+v, want 2δ=20", env.timers)
	}
	env.fire(t) // window closes: join completes even with zero replies
	if !n.Active() || !env.active {
		t.Fatal("join did not complete at window close")
	}
	if !n.Snapshot().IsBottom() {
		t.Fatal("no replies, yet register is not ⊥ (where did a value come from?)")
	}
}

func TestJoinStillInquiresWhenWriteArrived(t *testing.T) {
	// A WRITE observed during the pre-wait used to short-circuit the
	// INQUIRY (sound for a single register: any observed write supersedes
	// every earlier one). In the keyed namespace a write on one key says
	// nothing about other keys, so the joiner must inquire regardless —
	// exactly once — while still adopting the value it overheard.
	n, env := newJoining(Options{})
	n.Deliver(1, &core.WriteMsg{From: 1, Value: core.VersionedValue{Val: 6, SN: 3}})
	env.fire(t) // pre-wait ends → INQUIRY despite the adopted value
	if len(env.bcasts) != 1 || env.bcasts[0].Kind() != core.KindInquiry {
		t.Fatalf("broadcasts after pre-wait = %v, want exactly one INQUIRY", env.bcasts)
	}
	env.fire(t) // inquiry window closes
	if !n.Active() {
		t.Fatal("join did not activate at window close")
	}
	if v := n.Snapshot(); v.SN != 3 || v.Val != 6 {
		t.Fatalf("adopted %v, want the overheard ⟨6,#3⟩", v)
	}
	if got := n.Stats().JoinInquiries; got != 1 {
		t.Fatalf("join inquiries = %d, want exactly 1", got)
	}
}

func TestJoinAdoptsHighestReply(t *testing.T) {
	n, env := newJoining(Options{})
	env.fire(t) // pre-wait
	n.Deliver(1, &core.ReplyMsg{From: 1, Value: core.VersionedValue{Val: 10, SN: 1}})
	n.Deliver(2, &core.ReplyMsg{From: 2, Value: core.VersionedValue{Val: 30, SN: 3}})
	n.Deliver(3, &core.ReplyMsg{From: 3, Value: core.VersionedValue{Val: 20, SN: 2}})
	env.fire(t) // window closes
	if v := n.Snapshot(); v.SN != 3 || v.Val != 30 {
		t.Fatalf("adopted %v, want the highest-sn reply ⟨30,#3⟩", v)
	}
}

func TestDuplicateReplierKeepsMax(t *testing.T) {
	n, env := newJoining(Options{})
	env.fire(t)
	// Same process replies twice (e.g. deferred + direct); the max wins
	// regardless of arrival order.
	n.Deliver(1, &core.ReplyMsg{From: 1, Value: core.VersionedValue{Val: 50, SN: 5}})
	n.Deliver(1, &core.ReplyMsg{From: 1, Value: core.VersionedValue{Val: 10, SN: 1}})
	env.fire(t)
	if v := n.Snapshot(); v.SN != 5 {
		t.Fatalf("adopted %v, want sn 5", v)
	}
}

func TestReplyToDedupes(t *testing.T) {
	n, env := newJoining(Options{})
	n.Deliver(7, &core.InquiryMsg{From: 7})
	n.Deliver(7, &core.InquiryMsg{From: 7})
	n.Deliver(8, &core.InquiryMsg{From: 8})
	env.fire(t) // pre-wait
	env.fire(t) // window — completion flushes deferred replies
	replies := 0
	for _, s := range env.sent {
		if s.msg.Kind() == core.KindReply {
			replies++
		}
	}
	if replies != 2 {
		t.Fatalf("deferred replies = %d, want 2 (p7 deduped)", replies)
	}
}

func TestLateReplyAfterJoinDoesNotChangeRegister(t *testing.T) {
	n, env := newJoining(Options{})
	env.fire(t)
	n.Deliver(1, &core.ReplyMsg{From: 1, Value: core.VersionedValue{Val: 1, SN: 1}})
	env.fire(t) // join completes with sn 1
	n.Deliver(2, &core.ReplyMsg{From: 2, Value: core.VersionedValue{Val: 9, SN: 9}})
	if v := n.Snapshot(); v.SN != 1 {
		t.Fatalf("late REPLY mutated the register: %v (only WRITEs may)", v)
	}
}

func TestWriteUsesAdoptedSN(t *testing.T) {
	env := &fakeEnv{id: 1, n: 5, delta: 10}
	n := New(env, core.SpawnContext{Bootstrap: true, Initial: core.VersionedValue{Val: 0, SN: 0}}, Options{})
	n.Start()
	// The node learns sn 7 via a WRITE, then writes: new sn must be 8.
	n.Deliver(2, &core.WriteMsg{From: 2, Value: core.VersionedValue{Val: 70, SN: 7}})
	if err := n.Write(0, 80, ignoreWrite); err != nil {
		t.Fatal(err)
	}
	w, ok := env.bcasts[len(env.bcasts)-1].(*core.WriteMsg)
	if !ok || w.Value.SN != 8 || w.Value.Val != 80 {
		t.Fatalf("WRITE = %#v, want ⟨80,#8⟩", env.bcasts[len(env.bcasts)-1])
	}
	// Completion is exactly one δ timer.
	if len(env.timers) != 1 || env.timers[0].d != 10 {
		t.Fatalf("write completion timer = %+v, want δ", env.timers)
	}
}

func TestInquiryEchoIgnoredWhileJoining(t *testing.T) {
	// A joiner receives its own INQUIRY loopback: it defers a reply to
	// itself, which is harmless but must not break activation.
	n, env := newJoining(Options{})
	env.fire(t)
	n.Deliver(100, &core.InquiryMsg{From: 100}) // own loopback
	env.fire(t)
	if !n.Active() {
		t.Fatal("self-inquiry broke the join")
	}
}

func TestSkipInitialWaitGoesStraightToInquiry(t *testing.T) {
	_, env := newJoining(Options{SkipInitialWait: true})
	// The pre-wait timer exists but with zero duration.
	if len(env.timers) != 1 || env.timers[0].d != 0 {
		t.Fatalf("skip-wait timer = %+v, want 0", env.timers)
	}
	env.fire(t)
	if len(env.bcasts) != 1 || env.bcasts[0].Kind() != core.KindInquiry {
		t.Fatal("no immediate INQUIRY in skip-wait mode")
	}
}

// ignoreWrite is a write's done callback for a test that does not look
// at the outcome.
func ignoreWrite(core.VersionedValue, error) {}

// TestPipelinedWritesCompleteInInvocationOrder: writes pipelined on one
// key and interleaved with writes on others each wait their own δ, and
// complete in invocation order with the ⟨v, sn⟩ each stored, however
// their op records are recycled in between.
func TestPipelinedWritesCompleteInInvocationOrder(t *testing.T) {
	env := &fakeEnv{id: 1, n: 3, delta: 10}
	n := New(env, core.SpawnContext{Bootstrap: true, Initial: core.VersionedValue{Val: 0, SN: 0}}, Options{})
	n.Start()
	type result struct {
		reg core.RegisterID
		v   core.VersionedValue
	}
	var got, want []result
	write := func(k core.RegisterID, v core.Value, sn core.SeqNum) {
		t.Helper()
		want = append(want, result{k, core.VersionedValue{Val: v, SN: sn}})
		if err := n.Write(k, v, func(vv core.VersionedValue, err error) {
			if err != nil {
				t.Fatalf("write %v on r%d: %v", v, k, err)
			}
			got = append(got, result{k, vv})
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Three rounds: each invokes writes on key 1 twice and key 2 once,
	// then lets the oldest write finish before the next round, so each
	// round's writes reuse records the previous round freed.
	sn := map[core.RegisterID]core.SeqNum{}
	for round := core.Value(0); round < 3; round++ {
		for _, k := range []core.RegisterID{1, 2, 1} {
			sn[k]++
			write(k, 10*round+core.Value(k), sn[k])
		}
		env.fire(t)
	}
	for len(env.timers) > 0 {
		env.fire(t)
	}
	if len(got) != len(want) {
		t.Fatalf("%d writes completed, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion %d = %+v, want %+v (all: %+v)", i, got[i], want[i], got)
		}
	}
	if n.PendingOps() != 0 {
		t.Fatalf("%d ops still pending", n.PendingOps())
	}
}
