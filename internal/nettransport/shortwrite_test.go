package nettransport

// Stream safety of the one thing the monitor adds to the write path: a
// turn's end writes to the socket without blocking, so the kernel may take
// part of a batch — part of a frame — and the rest must reach the same
// connection in order from the link's writer, or the whole batch the next
// connection behind its HELLO. These tests use real loopback TCP with a
// remote that does not read, because only a kernel socket cuts a write
// short.

import (
	"context"
	"net"
	"syscall"
	"testing"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/wire"
)

const (
	stallTurnFrames = 4   // frames a turn sends the stalled peer
	stallEntries    = 100 // entries per frame: ≈ 2.4 kB, so a cut falls inside a frame
)

// stalledPeer is process 2 as the transport under test sees it: a listener
// it dials, whose accepted sockets have the smallest receive buffer the
// kernel allows, and which reads only when the test says so.
type stalledPeer struct {
	t  *testing.T
	ln net.Listener
}

func newStalledPeer(t *testing.T, tr *Transport) *stalledPeer {
	t.Helper()
	lc := net.ListenConfig{Control: func(_, _ string, c syscall.RawConn) (err error) {
		c.Control(func(fd uintptr) { err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 1) })
		return err
	}}
	ln, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	tr.mu.Lock()
	tr.ensurePeerLocked(2, ln.Addr().String())
	tr.mu.Unlock()
	return &stalledPeer{t: t, ln: ln}
}

// accept takes the transport's next connection and checks that it opens
// with HELLO — a whole one, so never with the tail of a frame.
func (sp *stalledPeer) accept() (net.Conn, *wire.Scanner) {
	sp.t.Helper()
	sp.ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	conn, err := sp.ln.Accept()
	if err != nil {
		sp.t.Fatal(err)
	}
	sp.t.Cleanup(func() { conn.Close() })
	sc := wire.NewScanner(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f, err := sc.Next(); err != nil || f.Type != wire.FrameHello || f.From != 1 {
		sp.t.Fatalf("first frame on a connection = %+v, %v; want p1's HELLO", f, err)
	}
	return conn, sc
}

// readOps reads message frames until op last arrives, and returns the ops
// in arrival order. Every byte must decode: a torn or misplaced frame ends
// the test here.
func (sp *stalledPeer) readOps(conn net.Conn, sc *wire.Scanner, last core.OpID) []core.OpID {
	sp.t.Helper()
	var ops []core.OpID
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for len(ops) == 0 || ops[len(ops)-1] != last {
		f, err := sc.Next()
		if err != nil {
			sp.t.Fatalf("after %d frames: %v", len(ops), err)
		}
		m, ok := f.Msg.(*core.ReplyMsg)
		if !ok || f.From != 1 || len(m.Rest) != stallEntries {
			sp.t.Fatalf("frame %d = %+v, want one of p1's snapshot replies", len(ops), f)
		}
		ops = append(ops, m.Op)
	}
	return ops
}

// pushUntilRefused runs turns that each send the stalled peer
// stallTurnFrames frames, numbered from 0, until the socket cuts an inline
// write short or refuses it. It returns how many frames went and the first
// one of the refused batch. Before each turn it waits for the link's
// writer to be parked — no wake pending, wmu free — so the turn's end
// writes inline: a writer woken by an earlier kick would otherwise take
// the batch and block in the full socket holding wmu, and every later
// turn would hand its frames to it without an inline write to refuse.
func pushUntilRefused(t *testing.T, tr *Transport, p *probe) (sent, firstRefused int) {
	t.Helper()
	tr.mu.Lock()
	l := &tr.byID[2].link
	tr.mu.Unlock()
	parked := func() bool {
		if len(l.wake) > 0 || !l.wmu.TryLock() {
			return false
		}
		l.wmu.Unlock()
		return true
	}
	entries := make([]core.KeyedValue, stallEntries)
	for tr.stats.FlushHandoffs.Load() == 0 {
		if sent > 1<<14 {
			t.Fatalf("%d frames (≈ %d MB) and the socket never refused a write", sent, sent*stallEntries*24>>20)
		}
		waitFor(t, "the stalled peer's writer to park", parked)
		firstRefused = sent
		tr.do(func() {
			for i := 0; i < stallTurnFrames; i++ {
				p.env.Send(2, core.ReplyMsg{From: 1, Op: core.OpID(sent), Rest: entries})
				sent++
			}
		})
	}
	if tr.stats.InlineFlushes.Load() == 0 || tr.stats.QueueDrops.Load() != 0 {
		t.Fatalf("inline flushes = %d, drops = %d", tr.stats.InlineFlushes.Load(), tr.stats.QueueDrops.Load())
	}
	return sent, firstRefused
}

func newStallTransport(t *testing.T) (*Transport, *probe) {
	return newProbeTransport(t, nil, func(c *Config) { c.QueueLen = 1 << 20 }) // nothing dropped: every frame is accounted for
}

func TestShortWriteKeepsTheStreamWholeAndTheNodeRunning(t *testing.T) {
	tr, p := newStallTransport(t)
	sp := newStalledPeer(t, tr)
	conn, sc := sp.accept()
	other := &scriptConn{failAfter: -1}
	attachPeer(tr, 3, other)

	sent, _ := pushUntilRefused(t, tr, p)

	// (a) The link to p2 is stalled, its writer parked in the socket with
	// the remainder. The node is not: turns go on, p3 gets its frames, p2's
	// queue behind the remainder.
	const more = 10
	entries := make([]core.KeyedValue, stallEntries)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < more; i++ {
			tr.do(func() {
				p.env.Send(3, label(i))
				p.env.Send(2, core.ReplyMsg{From: 1, Op: core.OpID(sent + i), Rest: entries})
				p.env.Send(1, label(i))
			})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a turn parked behind a peer that is not reading")
	}
	waitFor(t, "the other link's frames", func() bool { return len(scanAll(t, other.bytesWritten())) == more })
	if p.delivers.Load() != more {
		t.Fatalf("%d self-deliveries while a link was stalled, want %d", p.delivers.Load(), more)
	}
	sent += more

	// (b) The remote reads: every frame decodes, once, in order.
	for i, op := range sp.readOps(conn, sc, core.OpID(sent-1)) {
		if op != core.OpID(i) {
			t.Fatalf("frame %d carries op %d: torn, lost or reordered", i, op)
		}
	}
	waitFor(t, "the links to drain", func() bool { return tr.links.Load().drained() })
	if got, want := tr.stats.FlushedFrames.Load(), uint64(sent+more); got != want {
		t.Fatalf("FlushedFrames = %d, want %d: exactly what was sent, p3's included", got, want)
	}
	if tr.stats.Reconnects.Load() != 0 {
		t.Fatal("the connection was replaced")
	}
}

func TestConnectionDeathMidRemainderResendsTheBatchFromItsFirstByte(t *testing.T) {
	tr, p := newStallTransport(t)
	sp := newStalledPeer(t, tr)
	conn, _ := sp.accept()

	sent, firstRefused := pushUntilRefused(t, tr, p)
	// The writer holds the remainder of the refused batch — its offset most
	// likely inside a frame — and frames sent since wait behind it.
	entries := make([]core.KeyedValue, stallEntries)
	tr.do(func() { p.env.Send(2, core.ReplyMsg{From: 1, Op: core.OpID(sent), Rest: entries}) })
	sent++
	conn.Close() // unread data: the kernel resets the connection

	// The next connection: HELLO (checked by accept), then the refused batch
	// from its first frame — the prefix the dead connection took is sent
	// again, whole — then everything behind it, in order. Batches the dead
	// connection's kernel had taken whole are gone with it, as ever.
	conn2, sc2 := sp.accept()
	for i, op := range sp.readOps(conn2, sc2, core.OpID(sent-1)) {
		if op != core.OpID(firstRefused+i) {
			t.Fatalf("frame %d on the new connection carries op %d, want %d: the batch must restart at its first byte", i, op, firstRefused+i)
		}
	}
	waitFor(t, "the link to drain", func() bool { return tr.links.Load().drained() })
	if tr.stats.Reconnects.Load() != 1 {
		t.Fatalf("Reconnects = %d, want 1", tr.stats.Reconnects.Load())
	}
}
