package nettransport

// Tests of what an operation does at the node. serve invokes the node's
// own Read or Write and answers on a client session's link; the node's
// peers and clock are played by the test (opEnv), and the session has no
// connection behind it, so its answers stay queued on its link for the
// test to read. ReadKey and WriteKey make the same invocation and wait for
// its result; a scripted node (scriptedNode) plays their outcomes.

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"churnreg/internal/abd"
	"churnreg/internal/core"
	"churnreg/internal/esyncreg"
	"churnreg/internal/placement"
	"churnreg/internal/shard"
	"churnreg/internal/sim"
	"churnreg/internal/syncreg"
	"churnreg/internal/wire"
)

// opEnv is the Env the served node is built with: the transport's own,
// except that what the node sends is kept instead of sent and the timer it
// arms is kept instead of armed. It allocates nothing itself, so
// AllocsPerRun counts the node's own work: last is the node's own record,
// not a copy, so a test reads it before the node sends again.
type opEnv struct {
	loopEnv
	last  core.Message
	timer func()
}

func (e *opEnv) Send(_ core.ProcessID, m core.Message)        { e.last = m }
func (e *opEnv) SendGroup(_ []core.ProcessID, m core.Message) { e.last = m }
func (e *opEnv) Broadcast(m core.Message)                     { e.last = m }
func (e *opEnv) After(_ sim.Duration, fn func())              { e.timer = fn }

// newOpTransport builds an inert transport (no Start: no goroutines)
// hosting process 1 of three, f's node on an opEnv, started, and a client
// session with no connection behind it.
func newOpTransport(t *testing.T, f core.NodeFactory, bootstrap bool, pc placement.Config) (*Transport, *opEnv, *clientSession) {
	t.Helper()
	env := &opEnv{}
	tr, err := New(Config{
		ID: 1, ListenAddr: "127.0.0.1:0", N: 3, Delta: 5, Bootstrap: bootstrap, Placement: pc,
		Factory: func(e core.Env, sc core.SpawnContext) core.Node {
			env.loopEnv = e.(loopEnv)
			return f(env, sc)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	tr.Invoke(func(n core.Node) { n.Start() })
	return tr, env, &clientSession{link: newLink()}
}

// answers takes the FORWARDEDs queued on s, oldest first.
func answers(t *testing.T, s *clientSession) []core.ForwardedMsg {
	t.Helper()
	s.mu.Lock()
	b := s.buf
	s.buf, s.frames = nil, 0
	s.mu.Unlock()
	var out []core.ForwardedMsg
	for _, f := range scanAll(t, b) {
		fm, ok := f.Msg.(*core.ForwardedMsg)
		if !ok {
			t.Fatalf("answer %+v is not a FORWARDED", f)
		}
		out = append(out, *fm)
	}
	return out
}

// wantAnswer checks that s holds exactly one answer, to op, with code.
func wantAnswer(t *testing.T, s *clientSession, op core.OpID, code core.ForwardCode) core.ForwardedMsg {
	t.Helper()
	got := answers(t, s)
	if len(got) != 1 || got[0].Op != op || got[0].Code != code || got[0].From != 1 {
		t.Fatalf("answers %+v, want one FORWARDED(%v) to op %d from 1", got, code, op)
	}
	return got[0]
}

// TestServeForwardAllocs pins what serving one FORWARD costs in
// allocations, exactly. Every message is a record that is lent: the
// engine sends its READ, WRITE, REPLY or ACK from a record it keeps, and
// the test delivers a quorum protocol's two answers from records it
// keeps, as a reader's decoder lends its own. So sync and abd, reads and
// writes alike, allocate nothing: a sync write's wait(δ) timer, which the
// test fires, is a method value bound once; serve's answer slot is the
// session's, recycled with its done bound once; the engines' op records
// are recycled by their op tables, and each round's answers are counted
// in the record by a placement.Round; the FORWARDED is encoded from the
// stack. The sharded rows run the shard wrapper over the engine, node 1
// being the key's primary in a view of three, at the same counts. esync
// reads allocate nothing either; an esync write costs 1, its key's write
// queue, which a write makes again once the key's previous one left it.
func TestServeForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	read, write := core.ForwardMsg{Op: 1}, core.ForwardMsg{Op: 1, IsWrite: true, Val: 7}
	sharded := placement.Config{Shards: 8, Replication: 3}
	cases := []struct {
		name    string
		factory core.NodeFactory
		cfg     placement.Config
		op      core.ForwardMsg
		want    float64
	}{
		{"sync read", syncreg.Factory(syncreg.Options{}), placement.Config{}, read, 0},
		{"sync write", syncreg.Factory(syncreg.Options{}), placement.Config{}, write, 0},
		{"abd read", abd.Factory(), placement.Config{}, read, 0},
		{"abd write", abd.Factory(), placement.Config{}, write, 0},
		{"esync read", esyncreg.Factory(esyncreg.Options{}), placement.Config{}, read, 0},
		{"esync write", esyncreg.Factory(esyncreg.Options{}), placement.Config{}, write, 1},
		{"sharded sync read", shard.Factory(syncreg.Factory(syncreg.Options{})), sharded, read, 0},
		{"sharded sync write", shard.Factory(syncreg.Factory(syncreg.Options{})), sharded, write, 0},
		{"sharded abd read", shard.Factory(abd.Factory()), sharded, read, 0},
		{"sharded abd write", shard.Factory(abd.Factory()), sharded, write, 0},
		{"sharded esync read", shard.Factory(esyncreg.Factory(esyncreg.Options{})), sharded, read, 0},
		{"sharded esync write", shard.Factory(esyncreg.Factory(esyncreg.Options{})), sharded, write, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, env, sess := newOpTransport(t, tc.factory, true, tc.cfg)
			op := tc.op
			op.Reg = 4
			if tc.cfg.Shards > 0 {
				view := placement.Build(tc.cfg, []core.ProcessID{1, 2, 3})
				for view.Group(op.Reg)[0] != 1 {
					op.Reg++
				}
				tr.Invoke(func(n core.Node) {
					tr.view.Store(view)
					n.(placement.Aware).PlacementChanged(view)
				})
			}
			// The answers are delivered from records the test keeps, as
			// a runtime lends its own.
			var reply core.ReplyMsg
			var ack core.AckMsg
			serve := func() {
				tr.enter()
				env.last = nil
				tr.serve(sess, op)
				for m := env.last; m != nil; m = env.last {
					env.last = nil
					switch m := m.(type) {
					case *core.ReadMsg:
						reply = core.ReplyMsg{Value: core.ImplicitInitial(), Reg: op.Reg, Op: m.Op}
						for _, from := range []core.ProcessID{2, 3} {
							reply.From = from
							tr.node.Deliver(from, &reply)
						}
					case *core.WriteMsg:
						if fire := env.timer; fire != nil {
							env.timer = nil
							fire()
							break
						}
						ack = core.AckMsg{SN: m.Value.SN, Reg: op.Reg, Op: m.Op}
						for _, from := range []core.ProcessID{2, 3} {
							ack.From = from
							tr.node.Deliver(from, &ack)
						}
					}
				}
				tr.exit()
			}
			serve()
			wantAnswer(t, sess, 1, core.ForwardOK)
			got := testing.AllocsPerRun(200, func() {
				serve()
				sess.mu.Lock()
				sess.buf, sess.frames = sess.buf[:0], 0
				sess.mu.Unlock()
			})
			if got != tc.want {
				t.Fatalf("serving a FORWARD allocates %v times, want %v", got, tc.want)
			}
			serve()
			wantAnswer(t, sess, 1, core.ForwardOK)
			if st := tr.Stats(); st.ForwardsServed.Load() != 203 || st.ForwardsRefused.Load() != 0 {
				t.Fatalf("%d served, %d refused; want 203 and 0", st.ForwardsServed.Load(), st.ForwardsRefused.Load())
			}
		})
	}
}

// TestServeForwardRefusesOnStaleView: a FORWARD reaches a sharded node
// whose view disagrees with the client's. A write at a group member that
// is not the key's primary is refused with WRONG_REPLICA before it
// reaches the engine — only the current primary mints a key's sequence
// numbers — and leaves the store alone. A read at a node outside the
// key's group is the engine's own read: the synchronous protocol's local
// read is refused with WRONG_REPLICA, and a quorum protocol's asks the
// key's group and returns its latest value.
func TestServeForwardRefusesOnStaleView(t *testing.T) {
	cfg := placement.Config{Shards: 8, Replication: 3}
	view := placement.Build(cfg, []core.ProcessID{1, 2, 3, 4, 5})
	var member, outsider core.RegisterID // member: 1 replicates it, not as primary
	for k := core.RegisterID(1); member == 0 || outsider == 0; k++ {
		switch g := view.Group(k); {
		case member == 0 && view.IsReplica(k, 1) && g[0] != 1:
			member = k
		case outsider == 0 && !view.IsReplica(k, 1):
			outsider = k
		}
	}
	latest := core.VersionedValue{Val: 9, SN: 4}
	for _, tc := range []struct {
		name    string
		factory core.NodeFactory
		quorum  bool // reads ask the key's group
	}{
		{"sync", syncreg.Factory(syncreg.Options{}), false},
		{"esync", esyncreg.Factory(esyncreg.Options{}), true},
		{"abd", abd.Factory(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, env, sess := newOpTransport(t, shard.Factory(tc.factory), true, cfg)
			tr.Invoke(func(n core.Node) {
				tr.view.Store(view)
				n.(placement.Aware).PlacementChanged(view)
			})
			store := tr.node.(core.Stored).Store()
			before := store.Value(member, true)
			tr.do(func() { tr.serve(sess, core.ForwardMsg{Op: 1, Reg: member, IsWrite: true, Val: 7}) })
			wantAnswer(t, sess, 1, core.ForwardWrongReplica)
			if after := store.Value(member, true); after != before || env.last != nil {
				t.Fatalf("a refused write changed the store (%v -> %v) or sent %v", before, after, env.last)
			}

			tr.do(func() { tr.serve(sess, core.ForwardMsg{Op: 2, Reg: outsider}) })
			if !tc.quorum {
				wantAnswer(t, sess, 2, core.ForwardWrongReplica)
				if env.last != nil {
					t.Fatalf("a refused read sent %v", env.last)
				}
				return
			}
			sent, ok := env.last.(*core.ReadMsg)
			if !ok || sent.Reg != outsider {
				t.Fatalf("a read at an outsider sent %v, want a READ of %v to its group", env.last, outsider)
			}
			rd := *sent
			tr.do(func() {
				for _, g := range view.Group(outsider) {
					tr.node.Deliver(g, &core.ReplyMsg{From: g, Value: latest, Reg: outsider, Op: rd.Op})
				}
			})
			if got := wantAnswer(t, sess, 2, core.ForwardOK); got.Value != latest {
				t.Fatalf("read at an outsider returned %v, want the group's %v", got.Value, latest)
			}
			if st := tr.Stats(); st.ForwardsServed.Load() != 1 || st.ForwardsRefused.Load() != 1 {
				t.Fatalf("%d served, %d refused; want 1 and 1", st.ForwardsServed.Load(), st.ForwardsRefused.Load())
			}
		})
	}
}

// TestServeRefusal: an operation a node cannot take is refused with the
// code a client acts on — NOT_ACTIVE at a process whose join has not
// returned, BUSY at a node that serves no operations — and counted.
func TestServeRefusal(t *testing.T) {
	joining, _, sess := newOpTransport(t, syncreg.Factory(syncreg.Options{}), false, placement.Config{})
	joining.do(func() { joining.serve(sess, core.ForwardMsg{Op: 1, Reg: 3}) })
	wantAnswer(t, sess, 1, core.ForwardNotActive)

	tr, _ := newProbeTransport(t, nil, nil)
	tr.do(func() { tr.serve(sess, core.ForwardMsg{Op: 2, Reg: 3, IsWrite: true}) })
	wantAnswer(t, sess, 2, core.ForwardBusy)
	for _, tr := range []*Transport{joining, tr} {
		if st := tr.Stats(); st.ForwardsRefused.Load() != 1 || st.ForwardsServed.Load() != 0 {
			t.Fatalf("%d refused, %d served; want 1 and 0", st.ForwardsRefused.Load(), st.ForwardsServed.Load())
		}
	}
}

// TestForwardedDropped: no process sends a FORWARD or a FORWARDED, so
// either arriving on a peer connection — input from outside the program —
// is dropped before the engine, which panics on a kind it does not know,
// can see it. Over each engine nothing is answered and the store and the
// operation table are unchanged, and the connection is still read: a
// request behind the two frames that the engine answers with a REPLY (an
// INQUIRY under sync, which has no READ; a READ otherwise) is answered.
func TestForwardedDropped(t *testing.T) {
	inquiry, read := core.InquiryMsg{From: 2}, core.ReadMsg{From: 2, Op: 7, Reg: 5}
	for _, tc := range []struct {
		name    string
		factory core.NodeFactory
		request core.Message
	}{
		{"sync", syncreg.Factory(syncreg.Options{}), inquiry},
		{"esync", esyncreg.Factory(esyncreg.Options{}), read},
		{"abd", abd.Factory(), read},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, env, _ := newOpTransport(t, tc.factory, true, placement.Config{})
			store := tr.node.(core.Stored).Store()
			before := store.Value(5, true)
			var b []byte
			for _, m := range []core.Message{
				core.ForwardMsg{From: 2, Op: 1, Reg: 5, IsWrite: true, Val: 9},
				core.ForwardedMsg{From: 2, Op: 1, Reg: 5, Value: core.VersionedValue{Val: 9, SN: 3}},
				tc.request,
			} {
				var err error
				if b, err = wire.AppendFrameBytes(b, wire.Frame{Type: wire.FrameMsg, Msg: m}); err != nil {
					t.Fatal(err)
				}
			}
			st := tr.Stats()
			sent := st.FramesSent.Load()
			serve(tr, b)
			if _, ok := env.last.(*core.ReplyMsg); !ok {
				t.Fatalf("the %v behind the dropped frames was answered with %v, want a REPLY", tc.request.Kind(), env.last)
			}
			if st.FramesSent.Load() != sent || st.ForwardsServed.Load()+st.ForwardsRefused.Load() != 0 || st.DecodeErrors.Load() != 0 {
				t.Fatalf("frames sent %d, forwards served %d, refused %d, decode errors %d; want all 0",
					st.FramesSent.Load()-sent, st.ForwardsServed.Load(), st.ForwardsRefused.Load(), st.DecodeErrors.Load())
			}
			if after := store.Value(5, true); after != before || tr.node.(core.OpAccountant).PendingOps() != 0 {
				t.Fatalf("the store went %v -> %v, %d operations pending", before, after, tr.node.(core.OpAccountant).PendingOps())
			}
		})
	}
}

// scriptedNode is a node with core.Ops doing what the test scripts:
// refuse returns from the invocation; otherwise done runs at once with
// fail as its error, or, with hold set, is kept for the test to run.
type scriptedNode struct {
	probe
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

func (s *scriptedNode) Read(reg core.RegisterID, done func(core.VersionedValue, error)) error {
	if s.refuse != nil {
		return s.refuse
	}
	s.complete(func() { done(core.VersionedValue{Val: core.Value(reg), SN: 3}, s.fail) })
	return nil
}

func (s *scriptedNode) Write(reg core.RegisterID, v core.Value, done func(core.VersionedValue, error)) error {
	if s.refuse != nil {
		return s.refuse
	}
	s.complete(func() { done(core.VersionedValue{Val: v, SN: core.SeqNum(reg)}, s.fail) })
	return nil
}

// newScriptedTransport builds an inert transport hosting n.
func newScriptedTransport(t *testing.T, n *scriptedNode) *Transport {
	t.Helper()
	tr, _ := newProbeTransport(t, nil, func(c *Config) {
		c.Factory = func(core.Env, core.SpawnContext) core.Node { return n }
	})
	return tr
}

// opWait bounds a key operation that is meant to complete.
const opWait = time.Second

// TestValueAndSNPassThrough: ReadKey and WriteKey return the ⟨v, sn⟩ the
// node's done reports.
func TestValueAndSNPassThrough(t *testing.T) {
	tr := newScriptedTransport(t, &scriptedNode{})
	if v, err := tr.ReadKey(4, opWait); err != nil || v != (core.VersionedValue{Val: 4, SN: 3}) {
		t.Fatalf("read = %v, %v", v, err)
	}
	if vv, err := tr.WriteKey(6, 60, opWait); err != nil || vv != (core.VersionedValue{Val: 60, SN: 6}) {
		t.Fatalf("write = %v, %v", vv, err)
	}
}

// TestInvocationErrorIsReturned: an operation the node refuses at
// invocation returns the refusal, and one at a closed transport ErrClosed.
func TestInvocationErrorIsReturned(t *testing.T) {
	tr := newScriptedTransport(t, &scriptedNode{refuse: core.ErrNotActive})
	if _, err := tr.ReadKey(1, opWait); err != core.ErrNotActive {
		t.Fatalf("read: %v", err)
	}
	if _, err := tr.WriteKey(1, 1, opWait); err != core.ErrNotActive {
		t.Fatalf("write: %v", err)
	}
	tr.Close()
	if _, err := tr.ReadKey(1, opWait); err != ErrClosed {
		t.Fatalf("read on a closed transport: %v", err)
	}
	if _, err := tr.WriteKey(1, 1, opWait); err != ErrClosed {
		t.Fatalf("write on a closed transport: %v", err)
	}
}

// TestErrorDeliveredInDone: an operation that fails through done returns
// that error, and a read ⊥.
func TestErrorDeliveredInDone(t *testing.T) {
	tr := newScriptedTransport(t, &scriptedNode{fail: core.ErrUnroutable})
	if _, err := tr.WriteKey(1, 1, opWait); err != core.ErrUnroutable {
		t.Fatalf("write: %v", err)
	}
	if v, err := tr.ReadKey(1, opWait); err != core.ErrUnroutable || !v.IsBottom() {
		t.Fatalf("read: %v, %v", v, err)
	}
}

// TestNodeWithoutOps: a node that serves no operations refuses ReadKey and
// WriteKey with errNoOps, the refusal serve answers BUSY for.
func TestNodeWithoutOps(t *testing.T) {
	tr, _ := newProbeTransport(t, nil, nil)
	if _, err := tr.ReadKey(1, opWait); !errors.Is(err, errNoOps) {
		t.Fatalf("read: %v", err)
	}
	if _, err := tr.WriteKey(1, 1, opWait); !errors.Is(err, errNoOps) {
		t.Fatalf("write: %v", err)
	}
}

// TestTimeoutAndLateDone: a caller whose operation misses its deadline
// gets ErrTimeout, and the node completing it afterwards is not blocked:
// the late done returns and the node serves the next operation.
func TestTimeoutAndLateDone(t *testing.T) {
	n := &scriptedNode{hold: true}
	tr := newScriptedTransport(t, n)
	if _, err := tr.WriteKey(1, 1, 10*time.Millisecond); err != ErrTimeout {
		t.Fatalf("write: %v, want ErrTimeout", err)
	}
	late := make(chan struct{})
	go func() {
		tr.do(n.held)
		close(late)
	}()
	select {
	case <-late:
	case <-time.After(opWait):
		t.Fatal("a late done blocked the node")
	}
	if _, err := tr.ReadKey(1, 10*time.Millisecond); err != ErrTimeout {
		t.Fatalf("read: %v, want ErrTimeout", err)
	}
	tr.Invoke(func(core.Node) { n.hold = false })
	if v, err := tr.ReadKey(5, opWait); err != nil || v.Val != 5 {
		t.Fatalf("read after a late done = %v, %v", v, err)
	}
}

// TestCloseEndsOperationInFlight: an operation in flight when its
// transport closes returns ErrClosed at once, not ErrTimeout after the
// whole of its timeout.
func TestCloseEndsOperationInFlight(t *testing.T) {
	tr := newScriptedTransport(t, &scriptedNode{hold: true})
	go func() {
		time.Sleep(50 * time.Millisecond)
		tr.Close()
	}()
	start := time.Now()
	_, err := tr.ReadKey(1, 2*time.Second)
	if took := time.Since(start); err != ErrClosed || took > 500*time.Millisecond {
		t.Fatalf("a read held across Close returned %v after %v, want ErrClosed within 500ms", err, took)
	}
}

// TestServePipelinedAnswers: one session carries two abd reads at once,
// and the quorum replies of the second arrive before those of the first.
// Each FORWARDED carries its own operation's id, register and value:
// the answer slots of operations in flight together are distinct.
func TestServePipelinedAnswers(t *testing.T) {
	tr, env, sess := newOpTransport(t, abd.Factory(), true, placement.Config{})
	type read struct {
		fwd core.ForwardMsg
		val core.VersionedValue
		msg core.ReadMsg
	}
	reads := []*read{
		{fwd: core.ForwardMsg{Op: 1, Reg: 4}, val: core.VersionedValue{Val: 40, SN: 2}},
		{fwd: core.ForwardMsg{Op: 2, Reg: 9}, val: core.VersionedValue{Val: 90, SN: 5}},
	}
	for _, r := range reads {
		tr.do(func() { tr.serve(sess, r.fwd) })
		sent, ok := env.last.(*core.ReadMsg)
		if !ok || sent.Reg != r.fwd.Reg {
			t.Fatalf("read of %v sent %v, want a READ of it", r.fwd.Reg, env.last)
		}
		r.msg = *sent
	}
	if got := answers(t, sess); len(got) != 0 {
		t.Fatalf("answered %+v before any quorum replied", got)
	}
	for i := len(reads) - 1; i >= 0; i-- {
		r := reads[i]
		tr.do(func() {
			for _, from := range []core.ProcessID{2, 3} {
				tr.node.Deliver(from, &core.ReplyMsg{From: from, Value: r.val, Reg: r.fwd.Reg, Op: r.msg.Op})
			}
		})
		got := wantAnswer(t, sess, r.fwd.Op, core.ForwardOK)
		if got.Reg != r.fwd.Reg || got.Value != r.val {
			t.Fatalf("op %d answered register %v value %v, want %v and %v", r.fwd.Op, got.Reg, got.Value, r.fwd.Reg, r.val)
		}
	}
}

// heldNode keeps every operation's completion for the test to run, in
// whatever order it likes; with refuse set it refuses the invocation.
type heldNode struct {
	probe
	refuse  error
	pending []func()
}

func (n *heldNode) Read(reg core.RegisterID, done func(core.VersionedValue, error)) error {
	if n.refuse != nil {
		return n.refuse
	}
	n.pending = append(n.pending, func() { done(core.VersionedValue{Val: core.Value(reg), SN: 1}, nil) })
	return nil
}

func (n *heldNode) Write(reg core.RegisterID, v core.Value, done func(core.VersionedValue, error)) error {
	return n.Read(reg, done)
}

// TestAnswerSlotsRecycled: 1,000 operations on one session — served ones
// completing in shuffled order, refused ones (NOT_ACTIVE at invocation,
// BUSY) between them — each get the answer to their own id and register,
// and every slot goes back after its one done: the session's free list
// ends no longer than the most operations that were ever in flight at
// once.
func TestAnswerSlotsRecycled(t *testing.T) {
	n := &heldNode{}
	tr, _ := newProbeTransport(t, nil, func(c *Config) {
		c.Factory = func(core.Env, core.SpawnContext) core.Node { return n }
	})
	sess := &clientSession{link: newLink()}
	rng := rand.New(rand.NewSource(1))
	want := map[core.OpID]core.ForwardCode{}
	check := func() {
		t.Helper()
		for _, a := range answers(t, sess) {
			code, ok := want[a.Op]
			if !ok || a.Code != code || a.Reg != core.RegisterID(a.Op%7) || (code == core.ForwardOK && a.Value.Val != core.Value(a.Op%7)) {
				t.Fatalf("answer %+v, want one to op %d with code %v, register %d", a, a.Op, code, a.Op%7)
			}
			delete(want, a.Op)
		}
	}
	const ops = 1000
	most, refused := 0, 0
	for op := core.OpID(1); op <= ops || len(n.pending) > 0; {
		if op > ops || len(n.pending) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(n.pending))
			done := n.pending[i]
			n.pending = append(n.pending[:i], n.pending[i+1:]...)
			tr.do(done)
			check()
			continue
		}
		switch n.refuse = nil; rng.Intn(6) {
		case 0:
			n.refuse = core.ErrNotActive
			want[op] = core.ForwardNotActive
			refused++
		case 1:
			n.refuse = errors.New("overloaded")
			want[op] = core.ForwardBusy
			refused++
		default:
			want[op] = core.ForwardOK
		}
		tr.do(func() {
			tr.serve(sess, core.ForwardMsg{Op: op, Reg: core.RegisterID(op % 7), IsWrite: op%2 == 0, Val: core.Value(op % 7)})
		})
		most = max(most, len(n.pending))
		check()
		op++
	}
	if len(want) != 0 {
		t.Fatalf("%d operations never answered", len(want))
	}
	if st := tr.Stats(); st.ForwardsServed.Load() != uint64(ops-refused) || st.ForwardsRefused.Load() != uint64(refused) {
		t.Fatalf("%d served, %d refused; want %d and %d", st.ForwardsServed.Load(), st.ForwardsRefused.Load(), ops-refused, refused)
	}
	if len(sess.free) > most || most < 2 {
		t.Fatalf("free list of %d slots after at most %d operations in flight", len(sess.free), most)
	}
}
