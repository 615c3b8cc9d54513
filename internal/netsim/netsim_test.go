package netsim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"churnreg/internal/core"
	"churnreg/internal/sim"
	"churnreg/internal/wire"
)

// recorder is a test Endpoint that records deliveries.
type recorder struct {
	id   core.ProcessID
	got  []delivery
	hook func(from core.ProcessID, m core.Message)
}

type delivery struct {
	from core.ProcessID
	msg  core.Message
	at   sim.Time
}

func (r *recorder) ID() core.ProcessID { return r.id }

func (r *recorder) Deliver(from core.ProcessID, m core.Message) {
	r.got = append(r.got, delivery{from: from, msg: m})
	if r.hook != nil {
		r.hook(from, m)
	}
}

func newNet(model DelayModel) (*sim.Scheduler, *Network) {
	sched := sim.NewScheduler()
	return sched, New(sched, sim.NewRNG(1), model)
}

func TestSendDeliversWithinDelta(t *testing.T) {
	const delta = 10
	sched, net := newNet(SynchronousModel{Delta: delta})
	a := &recorder{id: 1}
	b := &recorder{id: 2}
	net.Attach(a)
	net.Attach(b)

	var deliveredAt sim.Time
	b.hook = func(core.ProcessID, core.Message) { deliveredAt = sched.Now() }
	net.Send(1, 2, core.InquiryMsg{From: 1})
	if err := sched.RunUntil(100); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(b.got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(b.got))
	}
	if deliveredAt < 1 || deliveredAt > delta {
		t.Fatalf("delivered at %v, want within (0, %d]", deliveredAt, delta)
	}
	if b.got[0].from != 1 {
		t.Fatalf("from = %v, want p1", b.got[0].from)
	}
}

func TestSendFromDepartedProcessIsSuppressed(t *testing.T) {
	sched, net := newNet(SynchronousModel{Delta: 5})
	b := &recorder{id: 2}
	net.Attach(b)
	// Process 1 never attached (equivalently: already departed).
	net.Send(1, 2, core.InquiryMsg{From: 1})
	if err := sched.RunUntil(100); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(b.got) != 0 {
		t.Fatal("message from absent sender was delivered")
	}
	if net.Stats().Sent != 0 {
		t.Fatal("suppressed send was counted as sent")
	}
}

func TestSendToDepartedProcessIsDropped(t *testing.T) {
	sched, net := newNet(SynchronousModel{Delta: 10})
	a := &recorder{id: 1}
	b := &recorder{id: 2}
	net.Attach(a)
	net.Attach(b)
	net.Send(1, 2, core.InquiryMsg{From: 1})
	net.Detach(2) // leaves before any delivery can occur (min delay 1)
	if err := sched.RunUntil(100); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(b.got) != 0 {
		t.Fatal("departed process received a message")
	}
	st := net.Stats()
	if st.DroppedDeparted != 1 {
		t.Fatalf("DroppedDeparted = %d, want 1", st.DroppedDeparted)
	}
}

func TestBroadcastReachesSnapshotOnly(t *testing.T) {
	const delta = 10
	sched, net := newNet(SynchronousModel{Delta: delta})
	src := &recorder{id: 1}
	in := &recorder{id: 2}
	late := &recorder{id: 3}
	net.Attach(src)
	net.Attach(in)

	net.Broadcast(1, core.WriteMsg{From: 1, Value: core.VersionedValue{Val: 9, SN: 1}})
	// Process 3 enters right after the broadcast: the paper's timely
	// delivery property gives it no delivery guarantee, and snapshot
	// semantics give it nothing.
	net.Attach(late)
	if err := sched.RunUntil(100); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(in.got) != 1 {
		t.Fatalf("present process deliveries = %d, want 1", len(in.got))
	}
	if len(late.got) != 0 {
		t.Fatal("late joiner received a broadcast sent before it entered")
	}
	if len(src.got) != 1 {
		t.Fatalf("sender self-delivery count = %d, want 1", len(src.got))
	}
}

func TestBroadcastSelfDeliveryIsLoopbackDelay(t *testing.T) {
	sched, net := newNet(SynchronousModel{Delta: 50})
	src := &recorder{id: 1}
	var at sim.Time
	src.hook = func(core.ProcessID, core.Message) { at = sched.Now() }
	net.Attach(src)
	net.Broadcast(1, core.WriteMsg{From: 1})
	if err := sched.RunUntil(100); err != nil {
		t.Fatalf("run: %v", err)
	}
	if at != sim.Time(LoopbackDelay) {
		t.Fatalf("self delivery at %v, want %v", at, LoopbackDelay)
	}
}

func TestBroadcastAllWithinDelta(t *testing.T) {
	const delta = 7
	sched, net := newNet(SynchronousModel{Delta: delta})
	eps := make([]*recorder, 20)
	latest := sim.Time(0)
	for i := range eps {
		eps[i] = &recorder{id: core.ProcessID(i + 1)}
		eps[i].hook = func(core.ProcessID, core.Message) {
			if sched.Now() > latest {
				latest = sched.Now()
			}
		}
		net.Attach(eps[i])
	}
	net.Broadcast(1, core.WriteMsg{From: 1})
	if err := sched.RunUntil(1000); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, ep := range eps {
		if len(ep.got) != 1 {
			t.Fatalf("endpoint %d deliveries = %d, want 1", i+1, len(ep.got))
		}
	}
	if latest > delta {
		t.Fatalf("latest delivery at %v, want <= %d", latest, delta)
	}
}

func TestDropRuleInjection(t *testing.T) {
	sched, net := newNet(SynchronousModel{Delta: 5})
	a := &recorder{id: 1}
	b := &recorder{id: 2}
	net.Attach(a)
	net.Attach(b)
	net.SetDropRule(func(from, to core.ProcessID, m core.Message, _ sim.Time) bool {
		return to == 2 && m.Kind() == core.KindWrite
	})
	net.Send(1, 2, core.WriteMsg{From: 1})
	net.Send(1, 2, core.AckMsg{From: 1})
	if err := sched.RunUntil(100); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(b.got) != 1 || b.got[0].msg.Kind() != core.KindAck {
		t.Fatalf("drop rule not applied: got %v", b.got)
	}
	if net.Stats().DroppedInjected != 1 {
		t.Fatalf("DroppedInjected = %d, want 1", net.Stats().DroppedInjected)
	}
}

func TestStatsAccounting(t *testing.T) {
	sched, net := newNet(SynchronousModel{Delta: 5})
	a := &recorder{id: 1}
	b := &recorder{id: 2}
	net.Attach(a)
	net.Attach(b)
	net.Send(1, 2, core.InquiryMsg{From: 1})
	net.Send(2, 1, core.ReplyMsg{From: 2})
	net.Broadcast(1, core.WriteMsg{From: 1})
	if err := sched.RunUntil(100); err != nil {
		t.Fatalf("run: %v", err)
	}
	st := net.Stats()
	if st.Sent != 4 { // 2 sends + broadcast to 2 endpoints
		t.Fatalf("Sent = %d, want 4", st.Sent)
	}
	if st.Delivered != 4 {
		t.Fatalf("Delivered = %d, want 4", st.Delivered)
	}
	if st.Broadcasts != 1 {
		t.Fatalf("Broadcasts = %d, want 1", st.Broadcasts)
	}
	if st.SentByKind[core.KindWrite] != 2 {
		t.Fatalf("SentByKind[WRITE] = %d, want 2", st.SentByKind[core.KindWrite])
	}
	if st.BytesSent == 0 {
		t.Fatal("BytesSent = 0")
	}
}

// unknownMsg is a message type internal/wire has no encoding for.
type unknownMsg struct{}

func (unknownMsg) Kind() core.MsgKind { return core.MsgKind(99) }

// TestMessagesCrossTheCodec pins that every message travels as the bytes
// nettransport would write: receivers get decoded copies, the byte count
// is the encoded frames', and what the codec cannot carry fails at send.
func TestMessagesCrossTheCodec(t *testing.T) {
	frameLen := func(t *testing.T, from core.ProcessID, m core.Message) uint64 {
		b, err := wire.AppendFrameBytes(nil, wire.Frame{Type: wire.FrameMsg, From: from, Msg: m})
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		return uint64(len(b))
	}
	cases := []struct {
		name string
		run  func(t *testing.T, sched *sim.Scheduler, net *Network, eps []*recorder)
	}{
		{"receivers own their copy", func(t *testing.T, sched *sim.Scheduler, net *Network, eps []*recorder) {
			rest := []core.KeyedValue{{Reg: 7, Value: core.VersionedValue{Val: 70, SN: 3}}, {Reg: 9, Value: core.VersionedValue{Val: 90, SN: 4}}}
			sent := append([]core.KeyedValue(nil), rest...)
			net.Broadcast(1, core.ReplyMsg{From: 1, Rest: rest})
			rest[0] = core.KeyedValue{Reg: 7, Value: core.VersionedValue{Val: -1, SN: 99}}
			if err := sched.RunUntil(100); err != nil {
				t.Fatalf("run: %v", err)
			}
			arrays := map[*core.KeyedValue]core.ProcessID{&rest[0]: 1}
			for _, ep := range eps {
				if len(ep.got) != 1 {
					t.Fatalf("%v deliveries = %d, want 1", ep.id, len(ep.got))
				}
				got := ep.got[0].msg.(core.ReplyMsg).Rest
				if len(got) != len(sent) || got[0] != sent[0] || got[1] != sent[1] {
					t.Fatalf("%v Rest = %v, want the sent %v", ep.id, got, sent)
				}
				if other, dup := arrays[&got[0]]; dup {
					t.Fatalf("%v shares Rest's backing array with %v", ep.id, other)
				}
				arrays[&got[0]] = ep.id
			}
		}},
		{"bytes are the encoded frames", func(t *testing.T, sched *sim.Scheduler, net *Network, eps []*recorder) {
			inq := core.InquiryMsg{From: 1, RSN: core.JoinReadSeq}
			rep := core.ReplyMsg{From: 2, Reg: 5, Rest: []core.KeyedValue{{Reg: 6}, {Reg: 8}}}
			batch := core.WriteBatchMsg{From: 3, Op: 4, Entries: []core.KeyedValue{{Reg: 1}, {Reg: 2}, {Reg: 3}}}
			net.Send(1, 2, inq)
			net.Send(2, 1, rep)
			net.Broadcast(3, batch)
			want := frameLen(t, 1, inq) + frameLen(t, 2, rep) + uint64(len(eps))*frameLen(t, 3, batch)
			if got := net.Stats().BytesSent; got != want {
				t.Fatalf("BytesSent = %d, want %d", got, want)
			}
		}},
		{"what the codec cannot carry panics at send", func(t *testing.T, sched *sim.Scheduler, net *Network, eps []*recorder) {
			huge := core.ReplyMsg{From: 1, Rest: make([]core.KeyedValue, wire.MaxFrame/24+1)}
			for name, m := range map[string]core.Message{"netsim.unknownMsg": unknownMsg{}, "core.ReplyMsg": huge} {
				func() {
					defer func() {
						r := recover()
						if r == nil {
							t.Fatalf("Send of %s did not panic", name)
						}
						if msg := fmt.Sprint(r); !strings.Contains(msg, name) {
							t.Fatalf("panic %q does not name %s", msg, name)
						}
					}()
					net.Send(1, 2, m)
				}()
			}
			if err := sched.RunUntil(100); err != nil {
				t.Fatalf("run: %v", err)
			}
			if n := len(eps[1].got); n != 0 {
				t.Fatalf("p2 deliveries = %d, want 0", n)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched, net := newNet(SynchronousModel{Delta: 5})
			eps := []*recorder{{id: 1}, {id: 2}, {id: 3}}
			for _, ep := range eps {
				net.Attach(ep)
			}
			tc.run(t, sched, net, eps)
		})
	}
}

func TestTraceObserver(t *testing.T) {
	sched, net := newNet(SynchronousModel{Delta: 5})
	a := &recorder{id: 1}
	b := &recorder{id: 2}
	net.Attach(a)
	net.Attach(b)
	var events []TraceEvent
	net.SetTrace(func(ev TraceEvent) { events = append(events, ev) })
	net.Send(1, 2, core.InquiryMsg{From: 1})
	if err := sched.RunUntil(100); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("trace events = %d, want 2 (send + deliver)", len(events))
	}
	if events[0].Delivered || !events[1].Delivered {
		t.Fatalf("trace order wrong: %+v", events)
	}
}

func TestPresentAndSize(t *testing.T) {
	_, net := newNet(SynchronousModel{Delta: 5})
	if net.Present(1) {
		t.Fatal("empty network claims presence")
	}
	net.Attach(&recorder{id: 1})
	net.Attach(&recorder{id: 2})
	if !net.Present(1) || !net.Present(2) || net.Size() != 2 {
		t.Fatal("attach bookkeeping wrong")
	}
	net.Detach(1)
	if net.Present(1) || net.Size() != 1 {
		t.Fatal("detach bookkeeping wrong")
	}
	ids := net.PresentIDs()
	if len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("PresentIDs = %v, want [p2]", ids)
	}
}

func TestSynchronousModelBounds(t *testing.T) {
	m := SynchronousModel{Delta: 9, Min: 3}
	rng := sim.NewRNG(2)
	for i := 0; i < 5000; i++ {
		d := m.Delay(rng, 1, 2, 0, core.KindWrite)
		if d < 3 || d > 9 {
			t.Fatalf("delay %d out of [3,9]", d)
		}
	}
}

func TestSynchronousModelDefaultMin(t *testing.T) {
	m := SynchronousModel{Delta: 4}
	rng := sim.NewRNG(2)
	for i := 0; i < 1000; i++ {
		if d := m.Delay(rng, 1, 2, 0, core.KindWrite); d < 1 || d > 4 {
			t.Fatalf("delay %d out of [1,4]", d)
		}
	}
}

func TestEventuallySynchronousModelBeforeAndAfterGST(t *testing.T) {
	m := EventuallySynchronousModel{GST: 100, Delta: 5, PreGSTMax: 50}
	rng := sim.NewRNG(3)
	sawSlow := false
	for i := 0; i < 5000; i++ {
		d := m.Delay(rng, 1, 2, 10, core.KindWrite) // before GST
		if d < 1 || d > 50 {
			t.Fatalf("pre-GST delay %d out of [1,50]", d)
		}
		if d > 5 {
			sawSlow = true
		}
	}
	if !sawSlow {
		t.Fatal("pre-GST delays never exceeded delta; asynchrony not exercised")
	}
	for i := 0; i < 5000; i++ {
		if d := m.Delay(rng, 1, 2, 100, core.KindWrite); d < 1 || d > 5 {
			t.Fatalf("post-GST delay %d violates delta bound", d)
		}
	}
}

func TestEventuallySynchronousModelDefaultPreGSTMax(t *testing.T) {
	m := EventuallySynchronousModel{GST: 100, Delta: 5}
	rng := sim.NewRNG(4)
	for i := 0; i < 2000; i++ {
		if d := m.Delay(rng, 1, 2, 0, core.KindWrite); d < 1 || d > 500 {
			t.Fatalf("pre-GST default-capped delay %d out of [1,500]", d)
		}
	}
}

func TestAsynchronousModelUnbounded(t *testing.T) {
	m := AsynchronousModel{Max: 1000}
	rng := sim.NewRNG(5)
	sawLarge := false
	for i := 0; i < 5000; i++ {
		d := m.Delay(rng, 1, 2, 0, core.KindWrite)
		if d < 1 || d > 1000 {
			t.Fatalf("delay %d out of [1,1000]", d)
		}
		if d > 500 {
			sawLarge = true
		}
	}
	if !sawLarge {
		t.Fatal("async model produced no long delays")
	}
}

func TestAsynchronousModelChoose(t *testing.T) {
	m := AsynchronousModel{Choose: func(_ *sim.RNG, _, _ core.ProcessID, _ sim.Time, _ core.MsgKind) sim.Duration {
		return 0 // must be clamped to 1
	}}
	if d := m.Delay(sim.NewRNG(1), 1, 2, 0, core.KindWrite); d != 1 {
		t.Fatalf("Choose result not clamped: %d", d)
	}
}

func TestFixedDelayModel(t *testing.T) {
	if d := (FixedDelayModel{D: 7}).Delay(nil, 1, 2, 0, core.KindWrite); d != 7 {
		t.Fatalf("fixed delay = %d, want 7", d)
	}
	if d := (FixedDelayModel{}).Delay(nil, 1, 2, 0, core.KindWrite); d != 1 {
		t.Fatalf("zero fixed delay = %d, want clamp to 1", d)
	}
}

func TestScriptedDelayModelPrecedence(t *testing.T) {
	m := ScriptedDelayModel{
		Base: FixedDelayModel{D: 3},
		Overrides: map[Route]sim.Duration{
			{Kind: core.KindWrite}:                 20,
			{To: 5}:                                30,
			{From: 1, To: 5, Kind: core.KindWrite}: 40,
		},
	}
	rng := sim.NewRNG(1)
	// Exact (from,to,kind) match wins.
	if d := m.Delay(rng, 1, 5, 0, core.KindWrite); d != 40 {
		t.Fatalf("exact-route delay = %d, want 40", d)
	}
	// Kind wildcard applies to other destinations... but {To:5} is also a
	// candidate for WRITEs to p5 from other senders; kind-specific
	// (To+Kind) outranks destination-only.
	if d := m.Delay(rng, 2, 6, 0, core.KindWrite); d != 20 {
		t.Fatalf("kind-route delay = %d, want 20", d)
	}
	if d := m.Delay(rng, 2, 5, 0, core.KindAck); d != 30 {
		t.Fatalf("to-route delay = %d, want 30", d)
	}
	if d := m.Delay(rng, 2, 6, 0, core.KindAck); d != 3 {
		t.Fatalf("base delay = %d, want 3", d)
	}
}

func TestScriptedDelayModelClampsToOne(t *testing.T) {
	m := ScriptedDelayModel{
		Base:      FixedDelayModel{D: 3},
		Overrides: map[Route]sim.Duration{{Kind: core.KindAck}: 0},
	}
	if d := m.Delay(sim.NewRNG(1), 1, 2, 0, core.KindAck); d != 1 {
		t.Fatalf("scripted zero delay = %d, want clamp to 1", d)
	}
}

// Property: the synchronous model never violates the paper's timely
// delivery bound for any (seed, delta).
func TestSynchronousTimelyDeliveryProperty(t *testing.T) {
	f := func(seed uint64, deltaRaw uint8) bool {
		delta := sim.Duration(deltaRaw%50) + 1
		m := SynchronousModel{Delta: delta}
		rng := sim.NewRNG(seed)
		for i := 0; i < 200; i++ {
			d := m.Delay(rng, 1, 2, 0, core.KindWrite)
			if d < 1 || d > delta {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: deliveries never occur before their send instant + 1.
func TestCausalDeliveryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		sched := sim.NewScheduler()
		net := New(sched, sim.NewRNG(seed), SynchronousModel{Delta: 10})
		ok := true
		var sentAt sim.Time
		b := &recorder{id: 2}
		b.hook = func(core.ProcessID, core.Message) {
			if sched.Now() <= sentAt {
				ok = false
			}
		}
		net.Attach(&recorder{id: 1})
		net.Attach(b)
		for i := 0; i < 50; i++ {
			sentAt = sched.Now()
			net.Send(1, 2, core.AckMsg{From: 1})
			if err := sched.RunFor(3); err != nil {
				return false
			}
		}
		if err := sched.RunUntil(10000); err != nil {
			return false
		}
		return ok && len(b.got) == 50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
