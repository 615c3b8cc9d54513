package nettransport

// White-box tests for the event loop's turn: they post tasks to the
// mailbox of a transport whose loop is not yet running, then run the
// loop, so what a turn does and in which order is checked without sockets
// or timing. The node is a probe that records what it is handed.

import (
	"fmt"
	"io"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/sim"
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

// newProbeTransport builds an inert transport (no Start: no goroutines)
// hosting a probe.
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
	t.Cleanup(tr.Close)
	return tr, p
}

// runLoop starts only the event loop (no listener, no dialing).
func runLoop(tr *Transport) {
	tr.wg.Add(1)
	go tr.loop()
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
	done := make(chan struct{})
	tr.enqueueDeliver(2, label(100))
	tr.enqueue(func() { p.events = append(p.events, "next mailbox task") })
	tr.enqueue(func() { close(done) })
	runLoop(tr)
	<-done
	want := []string{
		"deliver 100 from p2",
		"handler 100 returns",
		"deliver 1 from p1",
		"handler 1 returns",
		"deliver 2 from p1",
		"deliver 3 from p1",
		"deliver 4 from p1",
		"deliver 5 from p1",
		"next mailbox task",
	}
	if !reflect.DeepEqual(p.events, want) {
		t.Fatalf("events:\n got %q\nwant %q", p.events, want)
	}
	if p.maxDepth != 1 {
		t.Fatalf("Deliver nested to depth %d, want 1 (self-delivery must not be re-entrant)", p.maxDepth)
	}
	st := tr.Stats()
	if turns, tasks, self := st.LoopTurns.Load(), st.LoopTasks.Load(), st.SelfDeliveries.Load(); turns != 1 || tasks != 3 || self != 5 {
		t.Fatalf("turns, tasks, self-deliveries = %d, %d, %d, want 1, 3, 5", turns, tasks, self)
	}
	tr.mu.Lock()
	timers := len(tr.timers)
	tr.mu.Unlock()
	if timers != 0 {
		t.Fatalf("self-sends created %d timers, want none", timers)
	}
}

// TestSelfChatterCannotWedgeOrStarveTheLoop runs a node that sends to
// itself on every delivery behind a one-slot mailbox: the chain must keep
// moving (it never touches the mailbox), mailbox tasks must still get
// their turn, and Close must still stop the loop.
func TestSelfChatterCannotWedgeOrStarveTheLoop(t *testing.T) {
	checkLeaks := grabGoroutineBaseline(t)
	tr, p := newProbeTransport(t, func(p *probe, _ core.ProcessID, m core.Message) {
		p.env.Send(1, m)
	}, func(c *Config) { c.MailboxLen = 1 })
	tr.Start(nil)
	tr.Send(1, core.TokenMsg{From: 1}) // off the loop: goes through the mailbox
	waitFor(t, "the self-addressed chain to advance", func() bool { return p.delivers.Load() > 10*turnTasks })
	for i := 0; i < 3; i++ {
		ran := make(chan struct{})
		if err := tr.Invoke(func(core.Node) { close(ran) }); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ran:
		case <-time.After(5 * time.Second):
			t.Fatal("a mailbox task starved behind the node's messages to itself")
		}
	}
	tr.Close() // with self-deliveries queued
	checkLeaks()
}

// discardConn is a net.Conn that accepts every write.
type discardConn struct{ scriptConn }

func (*discardConn) Write(p []byte) (int, error) { return len(p), nil }

func TestLoopWakesEachLinkOncePerTurn(t *testing.T) {
	const tasks = 20
	tr, p := newProbeTransport(t, nil, nil)
	conn := &scriptConn{failAfter: -1}
	attachPeer(tr, 2, conn)
	for i := 0; i < tasks; i++ {
		msg := label(i)
		tr.enqueue(func() { p.env.Send(2, msg) })
	}
	runLoop(tr)
	waitFor(t, "the turn's frames", func() bool { return len(scanAll(t, conn.bytesWritten())) == tasks })
	for i, f := range scanAll(t, conn.bytesWritten()) {
		if f.Msg != label(i) {
			t.Fatalf("frame %d = %+v, want %+v", i, f.Msg, label(i))
		}
	}
	// Every task was in the mailbox before the loop ran, so they made one
	// turn, the link was woken once, and its writer wrote once.
	st := tr.Stats()
	if turns, writes := st.LoopTurns.Load(), st.FlushWrites.Load(); turns != 1 || writes != 1 {
		t.Fatalf("turns = %d, writes = %d, want 1 and 1 for %d sends queued ahead of the loop", turns, writes, tasks)
	}
	if st.LoopTasks.Load() != tasks || st.FramesPerWrite() != tasks {
		t.Fatalf("tasks = %d, frames per write = %v, want %d", st.LoopTasks.Load(), st.FramesPerWrite(), tasks)
	}
}

func TestForeignSendFlushesWithoutTheLoop(t *testing.T) {
	tr, p := newProbeTransport(t, nil, nil) // the loop is never started
	conn := &scriptConn{failAfter: -1}
	attachPeer(tr, 2, conn)
	tr.Send(2, label(7))
	tr.Send(3, label(8)) // nobody: counted, not queued
	waitFor(t, "the frame", func() bool { return len(scanAll(t, conn.bytesWritten())) == 1 })
	if got := scanAll(t, conn.bytesWritten())[0]; got.From != 1 || got.Msg != label(7) {
		t.Fatalf("wrote %+v, want message 7 from p1", got)
	}
	// A send to self off the loop waits in the mailbox for the loop.
	tr.Send(1, label(9))
	tr.Broadcast(label(10))
	waitFor(t, "the broadcast frame", func() bool { return len(scanAll(t, conn.bytesWritten())) == 2 })
	st := tr.Stats()
	if st.LoopTurns.Load() != 0 || st.SendUnknown.Load() != 1 || p.delivers.Load() != 0 || len(tr.mailbox) != 2 {
		t.Fatalf("turns = %d, unknown = %d, delivered = %d, mailbox = %d; want 0, 1, 0, 2",
			st.LoopTurns.Load(), st.SendUnknown.Load(), p.delivers.Load(), len(tr.mailbox))
	}
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
		c.Tick = time.Hour // timers far in the future: they must be stopped, not awaited
	})
	p.env.Send(1, core.TokenMsg{From: 1})    // self-send: no timer
	p.env.Broadcast(core.TokenMsg{From: 1})  // loopback: no timer
	tr.Send(1, core.TokenMsg{From: 1})       // off the loop: a mailbox post, no timer
	p.env.After(sim.Duration(10), func() {}) // protocol timer: the only one
	tr.mu.Lock()
	pending := len(tr.timers)
	tr.mu.Unlock()
	if pending != 1 {
		t.Fatalf("tracked timers = %d, want 1 (After only)", pending)
	}
	runLoop(tr)
	tr.Close() // with self-deliveries possibly still queued
	tr.mu.Lock()
	after := tr.timers
	tr.mu.Unlock()
	if after != nil {
		t.Fatalf("timers not released on Close: %d still tracked", len(after))
	}
	// And scheduling after Close is a no-op, not a leak.
	tr.After(sim.Duration(10), func() {})
	tr.mu.Lock()
	if tr.timers != nil {
		t.Fatal("After on a closed transport tracked a timer")
	}
	tr.mu.Unlock()
	checkLeaks()
}

// TestSendPathZeroAllocs is the send path's allocation ceiling: with the
// message already boxed in its interface (the codec's one allocation per
// message, paid by whoever builds it), neither a send to a connected peer
// nor a send to self allocates in steady state.
func TestSendPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	tr, p := newProbeTransport(t, nil, nil)
	attachPeer(tr, 2, &discardConn{})
	msg := core.Message(core.WriteMsg{From: 1, Value: core.VersionedValue{Val: 123456, SN: 42}, Reg: 9, Op: 1337})
	group := []core.ProcessID{1, 2}
	for name, send := range map[string]func(){
		"Send to a peer, off the loop": func() { tr.Send(2, msg) },
		"Send to a peer, on the loop": func() {
			p.env.Send(2, msg)
			tr.wakeLinks()
		},
		"Send to self, on the loop": func() {
			p.env.Send(1, msg)
			if _, ok := tr.next(false); !ok {
				t.Fatal("self-delivery not queued")
			}
		},
		"group send, on the loop": func() {
			p.env.(core.GroupSender).SendGroup(group, msg)
			tr.next(false)
			tr.wakeLinks()
		},
	} {
		if allocs := testing.AllocsPerRun(2000, send); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	if drops := tr.Stats().QueueDrops.Load(); drops != 0 {
		t.Logf("writer fell behind: %d drops", drops)
	}
}
