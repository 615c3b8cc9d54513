package nettransport

// Tests of what a client session's operation does at the node: serve
// invokes the node's own Read or Write and answers on the session's link.
// The node's peers and clock are played by the test (opEnv), and the
// session has no connection behind it, so its answers stay queued on its
// link for the test to read.

import (
	"testing"

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
// AllocsPerRun counts the node's own work.
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
		out = append(out, f.Msg.(core.ForwardedMsg))
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
// allocations on an unsharded node: serve's answer and, for a read, the
// adapter to Read's done; the inner protocol's operation (for abd, the
// two quorum answers it waits for; for a sync write, its wait(δ) timer,
// which the test fires, since syncreg takes no ACKs); and the FORWARDED
// boxed into its frame. The abd answers name the operation's id, so the
// test boxes each per run, and the abd ceilings count those two
// allocations. A write's done is serve's answer itself, unwrapped.
func TestServeForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const reg = 4
	read, write := core.ForwardMsg{Op: 1, Reg: reg}, core.ForwardMsg{Op: 1, Reg: reg, IsWrite: true, Val: 7}
	cases := []struct {
		name    string
		factory core.NodeFactory
		op      core.ForwardMsg
		max     float64
	}{
		{"sync read", syncreg.Factory(syncreg.Options{}), read, 3},
		{"sync write", syncreg.Factory(syncreg.Options{}), write, 5},
		{"abd read", abd.Factory(), read, 9},
		{"abd write", abd.Factory(), write, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, env, sess := newOpTransport(t, tc.factory, true, placement.Config{})
			serve := func() {
				tr.enter()
				env.last = nil
				tr.serve(sess, tc.op)
				switch m := env.last.(type) {
				case core.ReadMsg:
					for _, from := range []core.ProcessID{2, 3} {
						tr.node.Deliver(from, core.ReplyMsg{From: from, Value: core.ImplicitInitial(), Reg: reg, Op: m.Op})
					}
				case core.WriteMsg:
					if fire := env.timer; fire != nil {
						env.timer = nil
						fire()
						break
					}
					for _, from := range []core.ProcessID{2, 3} {
						tr.node.Deliver(from, core.AckMsg{From: from, SN: m.Value.SN, Reg: reg, Op: m.Op})
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
			if got > tc.max {
				t.Fatalf("serving a FORWARD allocates %v times, want <= %v", got, tc.max)
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
			rd, ok := env.last.(core.ReadMsg)
			if !ok || rd.Reg != outsider {
				t.Fatalf("a read at an outsider sent %v, want a READ of %v to its group", env.last, outsider)
			}
			tr.do(func() {
				for _, g := range view.Group(outsider) {
					tr.node.Deliver(g, core.ReplyMsg{From: g, Value: latest, Reg: outsider, Op: rd.Op})
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
			if _, ok := env.last.(core.ReplyMsg); !ok {
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
