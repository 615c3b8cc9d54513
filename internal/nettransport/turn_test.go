package nettransport

// White-box tests for the monitor's turn: a reader is run on the test's
// own goroutine over a scripted connection that hands it a chosen batch of
// frames, so what a turn does and in which order is checked without
// sockets or timing. The node is a probe that records what it is handed.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/sim"
	"churnreg/internal/wire"
)

// probe is a protocol node that runs a script on every delivery and
// records the order of events and how deeply Deliver was nested.
type probe struct {
	env      core.Env
	depth    int
	maxDepth int
	events   []string
	delivers atomic.Int64
	// onDeliver runs inside Deliver, after the entry is recorded.
	onDeliver func(p *probe, from core.ProcessID, m core.Message)
}

func (p *probe) Start()                        {}
func (p *probe) Active() bool                  { return true }
func (p *probe) Snapshot() core.VersionedValue { return core.VersionedValue{} }

func (p *probe) Deliver(from core.ProcessID, m core.Message) {
	p.depth++
	p.maxDepth = max(p.maxDepth, p.depth)
	p.delivers.Add(1)
	if r, ok := m.(core.ReadMsg); ok {
		p.events = append(p.events, fmt.Sprintf("deliver %d from %v", r.Op, from))
	}
	if p.onDeliver != nil {
		p.onDeliver(p, from, m)
	}
	p.depth--
}

// label is a message told apart by its Op.
func label(op int) core.Message { return core.ReadMsg{From: 1, Op: core.OpID(op)} }

// goid names the calling goroutine, from the first line of its stack
// ("goroutine 12 [running]:"): the tests' half of Transport.goid.
func goid() int64 {
	var buf [64]byte
	id, _ := strconv.ParseInt(string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1]), 10, 64)
	return id
}

// newProbeTransport builds an inert transport (no Start: no goroutines)
// hosting a probe, with the re-entry assertion armed.
func newProbeTransport(t *testing.T, script func(p *probe, from core.ProcessID, m core.Message), cfg func(*Config)) (*Transport, *probe) {
	t.Helper()
	p := &probe{onDeliver: script}
	c := Config{
		ID: 1, ListenAddr: "127.0.0.1:0", N: 3, Delta: 5, Bootstrap: true,
		Factory: func(env core.Env, _ core.SpawnContext) core.Node {
			p.env = env
			return p
		},
	}
	if cfg != nil {
		cfg(&c)
	}
	tr, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	tr.goid = goid
	t.Cleanup(tr.Close)
	return tr, p
}

// feedConn is an accepted connection whose remote flushed each chunk
// whole: one Read returns one chunk, and after the last the remote is gone.
type feedConn struct {
	scriptConn
	chunks [][]byte
}

func (c *feedConn) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// batch encodes msgs as the frames process from would flush together.
func batch(t *testing.T, from core.ProcessID, msgs ...core.Message) []byte {
	t.Helper()
	var b []byte
	for _, m := range msgs {
		var err error
		if b, err = wire.AppendFrameBytes(b, wire.Frame{Type: wire.FrameMsg, From: from, Msg: m}); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// serve runs a connection's reader on the caller's goroutine until the
// remote is gone: every chunk is read, delivered and flushed on return.
func serve(tr *Transport, chunks ...[]byte) {
	tr.wg.Add(1)
	tr.readConn(&feedConn{chunks: chunks}, nil, true, nil)
}

// attachPeer registers an identified peer whose writer drains into conn,
// as ensurePeerLocked would have after a dial.
func attachPeer(tr *Transport, id core.ProcessID, conn net.Conn) *peer {
	p := &peer{link: newLink(), addr: fmt.Sprintf("peer-%d", id), id: id}
	tr.mu.Lock()
	tr.byAddr[p.addr] = p
	tr.byID[id] = p
	tr.publishLinksLocked()
	tr.mu.Unlock()
	tr.wg.Add(1)
	go func() {
		defer tr.wg.Done()
		p.drain(tr, conn, false, nil)
	}()
	// drain flushes once on entry, whenever its goroutine first runs: a
	// late start would take part of a turn's frames in a write of its own.
	// A wake that has been consumed means the writer is past that flush.
	p.kick()
	for len(p.wake) > 0 {
		time.Sleep(50 * time.Microsecond)
	}
	return p
}

// attachTCPPeer is attachPeer over a loopback connection — the kind the
// end of a turn can write to itself — and returns the remote end.
func attachTCPPeer(t *testing.T, tr *Transport, id core.ProcessID) net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	local, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	remote, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	attachPeer(tr, id, local)
	return remote
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSelfDeliveryIsFIFOAfterHandlerBeforeNextTask(t *testing.T) {
	tr, p := newProbeTransport(t, func(p *probe, from core.ProcessID, m core.Message) {
		switch m.(core.ReadMsg).Op {
		case 100: // the trigger, from a peer
			p.env.Send(1, label(1))
			p.env.Broadcast(label(2))
			core.ScopedBroadcast(p.env, 0, label(3)) // unsharded: a broadcast
			p.env.Send(1, label(4))
			p.events = append(p.events, "handler 100 returns")
		case 1: // a self-delivery that itself broadcasts
			p.env.Broadcast(label(5))
			p.events = append(p.events, "handler 1 returns")
		}
	}, nil)
	// Two frames the peer flushed together: one turn, and the second frame
	// waits for everything the first one's handler sent to self.
	serve(tr, batch(t, 2, label(100), label(200)))
	want := []string{
		"deliver 100 from p2",
		"handler 100 returns",
		"deliver 1 from p1",
		"handler 1 returns",
		"deliver 2 from p1",
		"deliver 3 from p1",
		"deliver 4 from p1",
		"deliver 5 from p1",
		"deliver 200 from p2",
	}
	if !reflect.DeepEqual(p.events, want) {
		t.Fatalf("events:\n got %q\nwant %q", p.events, want)
	}
	if p.maxDepth != 1 {
		t.Fatalf("Deliver nested to depth %d, want 1 (self-delivery must not be re-entrant)", p.maxDepth)
	}
	st := tr.Stats()
	if turns, tasks, self := st.LoopTurns.Load(), st.LoopTasks.Load(), st.SelfDeliveries.Load(); turns != 1 || tasks != 2 || self != 5 {
		t.Fatalf("turns, tasks, self-deliveries = %d, %d, %d, want 1, 2, 5", turns, tasks, self)
	}
	if n := len(tr.deadlines); n != 0 {
		t.Fatalf("self-sends created %d timers, want none", n)
	}
}

// TestSelfChatterCannotWedgeOrStarveTheNode runs a node that sends to
// itself on every delivery. The chain must keep moving, on the goroutine
// that started it; because the monitor is released between turns, two
// connections' frames and Invoke must still be served, promptly and more
// than once each (nobody else gets stuck behind the chain); and Close must
// stop it all.
func TestSelfChatterCannotWedgeOrStarveTheNode(t *testing.T) {
	checkLeaks := grabGoroutineBaseline(t)
	var served [4]atomic.Int64 // by sender
	tr, p := newProbeTransport(t, func(p *probe, from core.ProcessID, m core.Message) {
		if from != 1 {
			served[from].Add(1)
		}
		p.env.Send(1, core.TokenMsg{From: 1})
	}, nil)
	tr.Start(nil)
	var chain sync.WaitGroup
	chain.Add(1)
	go func() {
		defer chain.Done()
		tr.Send(1, core.TokenMsg{From: 1}) // returns when the chain ends: at Close
	}()
	waitFor(t, "the self-addressed chain to advance", func() bool { return p.delivers.Load() > 10*turnTasks })
	for round := int64(1); round <= 3; round++ {
		for _, from := range []core.ProcessID{2, 3} {
			remote, local := net.Pipe()
			tr.wg.Add(1)
			go tr.readConn(local, nil, true, nil)
			if _, err := remote.Write(batch(t, from, label(int(round)))); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "a connection's frame to be served beside the chain", func() bool { return served[from].Load() == round })
			remote.Close()
		}
		ran := make(chan struct{})
		if err := tr.Invoke(func(core.Node) { close(ran) }); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ran:
		default:
			t.Fatal("Invoke returned before its closure ran")
		}
	}
	before := p.delivers.Load()
	waitFor(t, "the chain to go on", func() bool { return p.delivers.Load() > before+10*turnTasks })
	tr.Close() // with self-deliveries queued
	chain.Wait()
	checkLeaks()
}

// discardConn is a net.Conn that accepts every write.
type discardConn struct{ scriptConn }

func (*discardConn) Write(p []byte) (int, error) { return len(p), nil }

func TestReaderBatchIsOneTurnAndOneWritePerLink(t *testing.T) {
	const frames = 20
	tr, _ := newProbeTransport(t, func(p *probe, _ core.ProcessID, m core.Message) {
		p.env.Send(2, m)
	}, nil)
	conn := &scriptConn{failAfter: -1}
	attachPeer(tr, 2, conn)
	msgs := make([]core.Message, frames)
	for i := range msgs {
		msgs[i] = label(i)
	}
	serve(tr, batch(t, 3, msgs...))
	waitFor(t, "the turn's frames", func() bool { return len(scanAll(t, conn.bytesWritten())) == frames })
	for i, f := range scanAll(t, conn.bytesWritten()) {
		if f.Msg != label(i) {
			t.Fatalf("frame %d = %+v, want %+v", i, f.Msg, label(i))
		}
	}
	// The reader found every frame in its buffer at once, so they made one
	// turn, the link was flushed once, and its writer wrote once.
	st := tr.Stats()
	if turns, writes := st.LoopTurns.Load(), st.FlushWrites.Load(); turns != 1 || writes != 1 {
		t.Fatalf("turns = %d, writes = %d, want 1 and 1 for %d frames read together", turns, writes, frames)
	}
	if st.LoopTasks.Load() != frames || st.FramesPerWrite() != frames {
		t.Fatalf("tasks = %d, frames per write = %v, want %d", st.LoopTasks.Load(), st.FramesPerWrite(), frames)
	}
	// The same frames arriving one read at a time are a turn each.
	serve(tr, batch(t, 3, msgs[0]), batch(t, 3, msgs[1]), batch(t, 3, msgs[2]))
	if turns := st.LoopTurns.Load(); turns != 4 {
		t.Fatalf("turns = %d after three more frames in three reads, want 4", turns)
	}
}

// TestTurnIsBoundedAndReleasesTheMonitor feeds a reader more frames than a
// turn holds: the turn ends at turnTasks steps, flushing, and the reader
// goes on in another.
func TestTurnIsBoundedAndReleasesTheMonitor(t *testing.T) {
	const frames = turnTasks + 10
	tr, p := newProbeTransport(t, nil, nil)
	msgs := make([]core.Message, frames)
	for i := range msgs {
		msgs[i] = label(i)
	}
	serve(tr, batch(t, 2, msgs...))
	if p.delivers.Load() != frames || tr.Stats().LoopTurns.Load() != 2 {
		t.Fatalf("delivered %d in %d turns, want %d in 2", p.delivers.Load(), tr.Stats().LoopTurns.Load(), frames)
	}
}

func TestForeignSendFlushesWithoutATurn(t *testing.T) {
	tr, p := newProbeTransport(t, nil, nil)
	conn := &scriptConn{failAfter: -1}
	attachPeer(tr, 2, conn)
	tr.Send(2, label(7))
	tr.Send(3, label(8)) // nobody: counted, not queued
	waitFor(t, "the frame", func() bool { return len(scanAll(t, conn.bytesWritten())) == 1 })
	if got := scanAll(t, conn.bytesWritten())[0]; got.From != 1 || got.Msg != label(7) {
		t.Fatalf("wrote %+v, want message 7 from p1", got)
	}
	st := tr.Stats()
	if st.LoopTurns.Load() != 0 || st.SendUnknown.Load() != 1 || p.delivers.Load() != 0 {
		t.Fatalf("turns = %d, unknown = %d, delivered = %d; want 0, 1, 0", st.LoopTurns.Load(), st.SendUnknown.Load(), p.delivers.Load())
	}
	// A send to self from outside the monitor is a turn, on this goroutine.
	tr.Send(1, label(9))
	tr.Broadcast(label(10))
	waitFor(t, "the broadcast frame", func() bool { return len(scanAll(t, conn.bytesWritten())) == 2 })
	if st.LoopTurns.Load() != 2 || p.delivers.Load() != 2 {
		t.Fatalf("turns = %d, delivered = %d; want 2, 2", st.LoopTurns.Load(), p.delivers.Load())
	}
}

// TestInvokeFromAHandlerIsCaught pins the rule the monitor adds: a handler
// that calls Invoke (or an exported Send to self) waits for the monitor
// its own goroutine holds. Production code would hang; under test it
// panics.
func TestInvokeFromAHandlerIsCaught(t *testing.T) {
	var tr *Transport
	tr, _ = newProbeTransport(t, func(*probe, core.ProcessID, core.Message) {
		defer func() {
			if recover() == nil {
				t.Error("Invoke from inside a handler did not panic")
			}
		}()
		tr.Invoke(func(core.Node) {})
	}, nil)
	serve(tr, batch(t, 2, label(1)))
}

func TestLeaveWaitsForClientSessionLinks(t *testing.T) {
	tr, _ := newProbeTransport(t, nil, nil)
	client, server := net.Pipe()
	defer client.Close()
	sess := tr.newClientSession(server)
	if !tr.links.Load().drained() {
		t.Fatal("a fresh session counts as undrained")
	}
	// net.Pipe is unbuffered: with nobody reading, the replies stay queued
	// or in the writer's hands, and the session's link must say so.
	tr.Send(sess.pid, core.ForwardedMsg{From: 1, Op: 1})
	tr.Send(sess.pid, core.ForwardedMsg{From: 1, Op: 2})
	time.Sleep(10 * time.Millisecond) // let the writer take what it will
	if sess.depth() != 2 || tr.links.Load().drained() {
		t.Fatalf("depth = %d, drained = %v with two replies unwritten for a client session", sess.depth(), tr.links.Load().drained())
	}
	go io.Copy(io.Discard, client)
	waitFor(t, "the session link to drain", func() bool { return tr.links.Load().drained() })
}

func TestCloseStopsTrackedTimers(t *testing.T) {
	checkLeaks := grabGoroutineBaseline(t)
	tr, p := newProbeTransport(t, nil, func(c *Config) {
		c.Tick = time.Hour // timers far in the future: they must be dropped, not awaited
	})
	var pending int
	tr.Invoke(func(core.Node) {
		p.env.Send(1, core.TokenMsg{From: 1})    // self-send: no timer
		p.env.Broadcast(core.TokenMsg{From: 1})  // loopback: no timer
		p.env.After(sim.Duration(10), func() {}) // protocol timer: the only one
		pending = len(tr.deadlines)
	})
	tr.Send(1, core.TokenMsg{From: 1}) // outside the monitor: a turn, no timer
	if pending != 1 || len(tr.deadlines) != 1 {
		t.Fatalf("pending timers = %d, then %d, want 1 (After only)", pending, len(tr.deadlines))
	}
	tr.Close()
	if tr.deadlines != nil {
		t.Fatalf("timers not released on Close: %d still held", len(tr.deadlines))
	}
	// And scheduling after Close is a no-op, not a leak.
	tr.After(sim.Duration(10), func() {})
	if tr.deadlines != nil {
		t.Fatal("After on a closed transport queued a timer")
	}
	checkLeaks() // the clock's goroutine, started by the first After, is gone
}

// TestSendPathZeroAllocs is the send path's allocation ceiling: with the
// message already boxed in its interface (the codec's one allocation per
// message, paid by whoever builds it), neither a send to a connected peer
// nor a send to self allocates in steady state — the turn around it, and
// the non-blocking write that ends it, included.
func TestSendPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	tr, p := newProbeTransport(t, nil, nil)
	tr.goid = nil // reads the stack: test-only, and not free
	attachPeer(tr, 2, &discardConn{})
	go io.Copy(io.Discard, attachTCPPeer(t, tr, 3))
	msg := core.Message(core.WriteMsg{From: 1, Value: core.VersionedValue{Val: 123456, SN: 42}, Reg: 9, Op: 1337})
	group := []core.ProcessID{1, 2, 3}
	toWriter := func() { p.env.Send(2, msg) }
	toSocket := func() { p.env.Send(3, msg) }
	toSelf := func() { p.env.Send(1, msg) }
	toGroup := func() { p.env.(core.GroupSender).SendGroup(group, msg) }
	for name, send := range map[string]func(){
		"Send to a peer, outside the monitor":          func() { tr.Send(2, msg) },
		"Send to a peer, in a turn, writer's flush":    func() { tr.do(toWriter) },
		"Send to a peer, in a turn, inline flush":      func() { tr.do(toSocket) },
		"Send to self, in a turn":                      func() { tr.do(toSelf) },
		"group send, in a turn":                        func() { tr.do(toGroup) },
		"a frame from a connection, answered in place": func() { tr.enter(); tr.run(3, msg, nil); toSocket(); tr.exit() },
	} {
		if allocs := testing.AllocsPerRun(2000, send); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	st := tr.Stats()
	if st.InlineFlushes.Load() < 3*2000 || st.SelfDeliveries.Load() < 2*2000 {
		t.Fatalf("inline flushes = %d, self-deliveries = %d: the turns did not do what the test is named for", st.InlineFlushes.Load(), st.SelfDeliveries.Load())
	}
	if drops := st.QueueDrops.Load(); drops != 0 {
		t.Logf("writer fell behind: %d drops", drops)
	}
}
