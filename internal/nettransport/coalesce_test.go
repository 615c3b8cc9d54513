package nettransport

// White-box tests for the write path: a link's drain is driven directly
// with scripted net.Conns, so the one-write flush, overflow, partial-write
// failure, requeue, and HELLO ordering are all checked deterministically —
// no real sockets, no timing.

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/wire"
)

// scriptConn is a net.Conn whose Write appends to a buffer until failAfter
// bytes have been accepted in total; the write that crosses the budget
// takes the partial prefix and returns an error, exactly the shape of a
// mid-batch TCP failure. failAfter < 0 never fails.
type scriptConn struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	failAfter int
	closed    bool
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	if c.failAfter >= 0 {
		room := c.failAfter - c.buf.Len()
		if room < len(p) {
			if room > 0 {
				c.buf.Write(p[:room])
			}
			return max(room, 0), errors.New("scripted connection failure")
		}
	}
	return c.buf.Write(p)
}

func (c *scriptConn) bytesWritten() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}

func (c *scriptConn) Read(p []byte) (int, error) { return 0, net.ErrClosed }
func (c *scriptConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}
func (c *scriptConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *scriptConn) SetDeadline(t time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(t time.Time) error { return nil }

// newDrainHarness builds an inert transport (no Start: no goroutines) plus
// a peer whose link holds frames numbered 0..frames-1, queued the way a
// sender off the loop queues them.
func newDrainHarness(t *testing.T, frames int, cfg func(*Config)) (*Transport, *peer, []core.WriteMsg) {
	t.Helper()
	tr, _ := newProbeTransport(t, nil, cfg)
	p := &peer{link: newLink(), addr: "test", id: 2}
	msgs := make([]core.WriteMsg, 0, frames)
	for i := 0; i < frames; i++ {
		m := core.WriteMsg{From: 1, Value: core.VersionedValue{Val: core.Value(i), SN: core.SeqNum(i + 1)}, Reg: 7, Op: core.OpID(i + 1)}
		msgs = append(msgs, m)
		tr.transmit(false, wire.Frame{Type: wire.FrameMsg, From: 1, Msg: m}, &p.link)
	}
	return tr, p, msgs
}

// drainUntilIdle runs drain against conn, releasing it via the link's quit
// channel once the queue has been consumed (drain otherwise sleeps on the
// wake).
func drainUntilIdle(t *testing.T, tr *Transport, p *peer, conn net.Conn) bool {
	t.Helper()
	done := make(chan bool, 1)
	go func() { done <- p.drain(tr, conn, true, nil) }()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case redial := <-done:
			return redial
		case <-deadline:
			t.Fatal("drain did not settle")
		case <-time.After(time.Millisecond):
			if p.depth() == 0 {
				p.stop() // all consumed: ask drain to exit cleanly
			}
		}
	}
}

// scanAll decodes every complete frame in b, tolerating a truncated tail
// (the remains of a partial write).
func scanAll(t *testing.T, b []byte) []wire.Frame {
	t.Helper()
	sc := wire.NewScanner(bytes.NewReader(b))
	var out []wire.Frame
	for {
		f, err := sc.Next()
		if err != nil {
			return out
		}
		out = append(out, f)
	}
}

// wantMsgs checks that got is exactly the WRITE frames want, in order.
func wantMsgs(t *testing.T, got []wire.Frame, want []core.WriteMsg) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d message frames, want %d", len(got), len(want))
	}
	for i, f := range got {
		if m, ok := f.Msg.(*core.WriteMsg); !ok || *m != want[i] {
			t.Fatalf("frame %d = %+v, want %+v", i, f.Msg, want[i])
		}
	}
}

func TestDrainFlushesWholeQueueInOneWrite(t *testing.T) {
	const frames = 100
	tr, p, msgs := newDrainHarness(t, frames, nil)
	conn := &scriptConn{failAfter: -1}
	if redial := drainUntilIdle(t, tr, p, conn); redial {
		t.Fatal("clean drain asked for a redial")
	}
	got := scanAll(t, conn.bytesWritten())
	if len(got) != frames+1 || got[0].Type != wire.FrameHello {
		t.Fatalf("scanned %d frames starting with %v, want HELLO + %d msgs", len(got), got[0].Type, frames)
	}
	wantMsgs(t, got[1:], msgs)
	// All 100 frames were queued before the connection existed: the
	// writer swaps the whole buffer out and hands it to one Write.
	if writes := tr.stats.FlushWrites.Load(); writes != 1 {
		t.Fatalf("FlushWrites = %d, want 1 for %d pre-queued frames", writes, frames)
	}
	if fpw := tr.stats.FramesPerWrite(); fpw != frames {
		t.Fatalf("FramesPerWrite = %.1f, want %d", fpw, frames)
	}
	if tr.stats.FlushedFrames.Load() != frames || tr.stats.LastBatchFrames.Load() != frames {
		t.Fatalf("FlushedFrames = %d, LastBatchFrames = %d, want %d", tr.stats.FlushedFrames.Load(), tr.stats.LastBatchFrames.Load(), frames)
	}
	if tr.stats.FramesSent.Load() != frames+1 {
		t.Fatalf("FramesSent = %d, want %d + HELLO", tr.stats.FramesSent.Load(), frames)
	}
}

// TestLinkKeepsNoBurstSizedBuffer pins the memory budget of a link: the
// buffer a flush is done with is kept for the next swap only while it is
// small, so a backlog does not stay allocated on every link it crossed.
func TestLinkKeepsNoBurstSizedBuffer(t *testing.T) {
	big := wire.Frame{Type: wire.FrameMsg, From: 1, Msg: core.ReplyMsg{From: 1, Op: 1, Rest: make([]core.KeyedValue, maxSpare/24+1)}}
	tr, p, _ := newDrainHarness(t, 3, nil)
	drainUntilIdle(t, tr, p, &scriptConn{failAfter: -1})
	if p.spare == nil || cap(p.spare) > maxSpare {
		t.Fatalf("after a small flush the spare has cap %d, want a reusable buffer of at most %d", cap(p.spare), maxSpare)
	}
	p.link = newLink()
	tr.transmit(false, big, &p.link)
	if len(p.buf) <= maxSpare {
		t.Fatalf("test frame is %d bytes, want more than maxSpare", len(p.buf))
	}
	drainUntilIdle(t, tr, p, &scriptConn{failAfter: -1})
	if p.spare != nil || cap(p.buf) > maxSpare || p.batch != nil {
		t.Fatalf("after a %d-byte flush the link keeps spare cap %d, buf cap %d", maxSpare, cap(p.spare), cap(p.buf))
	}
}

func TestPushDropsOldestFrameAndCountsIt(t *testing.T) {
	const queue, frames = 4, 10
	tr, p, msgs := newDrainHarness(t, frames, func(c *Config) { c.QueueLen = queue })
	if drops := tr.stats.QueueDrops.Load(); drops != frames-queue {
		t.Fatalf("QueueDrops = %d, want %d", drops, frames-queue)
	}
	if p.depth() != queue {
		t.Fatalf("depth = %d, want the bound %d", p.depth(), queue)
	}
	conn := &scriptConn{failAfter: -1}
	drainUntilIdle(t, tr, p, conn)
	// What survives is the newest QueueLen frames, still in order.
	wantMsgs(t, scanAll(t, conn.bytesWritten())[1:], msgs[frames-queue:])
}

func TestDrainPartialWriteRequeuesWholeBatch(t *testing.T) {
	const frames = 8
	// Let the HELLO (small) through, then fail 10 bytes into the batch: a
	// partial write of a mid-frame prefix.
	tr, p, msgs := newDrainHarness(t, frames, nil)
	hello, err := wire.AppendFrameBytes(nil, tr.helloFrame())
	if err != nil {
		t.Fatal(err)
	}
	conn := &scriptConn{failAfter: len(hello) + 10}
	done := make(chan bool, 1)
	go func() { done <- p.drain(tr, conn, true, nil) }()
	select {
	case redial := <-done:
		if !redial {
			t.Fatal("broken connection should ask for a redial")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not notice the failed write")
	}
	if p.batchFrames != frames {
		t.Fatalf("link holds %d frames after mid-batch death, want the whole batch of %d", p.batchFrames, frames)
	}
	// A frame queued while the connection is down goes out behind the
	// requeued batch.
	late := core.WriteMsg{From: 1, Value: core.VersionedValue{Val: 99, SN: 99}, Reg: 7, Op: 99}
	tr.transmit(false, wire.Frame{Type: wire.FrameMsg, From: 1, Msg: late}, &p.link)
	// Reconnect: a fresh conn must carry HELLO first, then every requeued
	// frame, in order, decodable by the canonical scanner.
	conn2 := &scriptConn{failAfter: -1}
	if redial := drainUntilIdle(t, tr, p, conn2); redial {
		t.Fatal("clean drain asked for a redial")
	}
	if p.batchFrames != 0 || p.batch != nil {
		t.Fatalf("batch not cleared after successful retry: %d", p.batchFrames)
	}
	got := scanAll(t, conn2.bytesWritten())
	if len(got) == 0 || got[0].Type != wire.FrameHello {
		t.Fatalf("first frame on reconnect = %+v, want HELLO (identity before traffic)", got)
	}
	wantMsgs(t, got[1:], append(msgs, late))
}

func TestDrainHelloPrecedesRequeuedFrames(t *testing.T) {
	// Even with frames waiting from a dead connection, the new
	// connection's first frame must be HELLO — the remote drops protocol
	// frames from links whose identity it cannot bind.
	tr, p, msgs := newDrainHarness(t, 3, nil)
	conn := &scriptConn{} // failAfter 0: every write fails immediately
	done := make(chan bool, 1)
	go func() { done <- p.drain(tr, conn, true, nil) }()
	if redial := <-done; !redial {
		t.Fatal("want redial after total write failure")
	}
	// The HELLO write itself failed, so nothing reached the wire; the
	// link still holds the frames. Drain again on a good conn.
	conn2 := &scriptConn{failAfter: -1}
	drainUntilIdle(t, tr, p, conn2)
	got := scanAll(t, conn2.bytesWritten())
	if len(got) == 0 || got[0].Type != wire.FrameHello {
		t.Fatalf("first frame = %+v, want HELLO before batched frames", got)
	}
	wantMsgs(t, got[1:], msgs)
}

// TestFramesBehindABatchKeepTheirWake: a turn's end that finds the
// writer's wake token already pending adds none, so one token covers both
// the cut-short batch the writer is woken to finish and the frames queued
// behind it. Finishing the batch must not spend that token: the frames
// behind it go out in the writer's next write, not at the link's next
// send, however long that is.
func TestFramesBehindABatchKeepTheirWake(t *testing.T) {
	tr, p, msgs := newDrainHarness(t, 2, nil)
	p.mu.Lock()
	queued := p.buf
	p.buf, p.frames = nil, 0
	p.mu.Unlock()
	<-p.wake
	// The writer starts on an empty link and parks on its wake.
	conn := &scriptConn{failAfter: -1}
	go p.drain(tr, conn, false, nil)
	defer p.stop()
	waitFor(t, "the writer to attach", func() bool {
		p.wmu.Lock()
		defer p.wmu.Unlock()
		return p.tryWrite != nil
	})
	time.Sleep(10 * time.Millisecond)
	// The first frame is the batch an inline write left for the writer; the
	// second was queued behind it, its kick swallowed by the pending token.
	n := wire.FrameSize(queued)
	p.wmu.Lock()
	p.mu.Lock()
	p.batch, p.batchFrames = queued[:n], 1
	p.buf, p.frames = queued[n:], 1
	p.mu.Unlock()
	p.wmu.Unlock()
	p.kick()
	waitFor(t, "both frames on the connection", func() bool { return len(scanAll(t, conn.bytesWritten())) == 2 })
	wantMsgs(t, scanAll(t, conn.bytesWritten()), msgs)
}

// TestMonitorStallCounted: a producer that finds the node's monitor held
// waits for it, and is counted — the question MailboxStalls always asked,
// "did work wait for the node".
func TestMonitorStallCounted(t *testing.T) {
	tr, _ := newProbeTransport(t, nil, nil)
	if err := tr.Invoke(func(core.Node) {}); err != nil || tr.stats.MailboxStalls.Load() != 0 {
		t.Fatalf("Invoke on an idle node: err %v, %d stalls", err, tr.stats.MailboxStalls.Load())
	}
	ran := make(chan struct{})
	tr.lock() // somebody's turn
	go tr.Invoke(func(core.Node) { close(ran) })
	waitFor(t, "the stall to be counted", func() bool { return tr.stats.MailboxStalls.Load() == 1 })
	select {
	case <-ran:
		t.Fatal("a closure ran beside another producer's turn")
	default:
	}
	tr.unlock()
	<-ran
}
