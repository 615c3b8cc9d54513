package nettransport

// The TCP link: the sending half of one connection. The package comment's
// Concurrency section says who flushes it and when.

import (
	"net"
	"sync"
	"syscall"
	"time"

	"churnreg/internal/wire"
)

// maxSpare caps the buffer capacity a link keeps between flushes: a burst
// (a join snapshot, a backlog built while the connection was down) must
// not stay pinned on every link it once passed through.
const maxSpare = 64 << 10

// link is the sending half of one connection, shared by peers and client
// sessions: frames already in wire form, appended back to back by any
// goroutine, swapped out whole by whoever flushes.
type link struct {
	mu     sync.Mutex
	buf    []byte // queued frames, length prefixes included, oldest first
	frames int    // how many frames buf holds
	// wake holds at most one token, "buf may hold frames": senders never
	// block on it and the writer sleeps on it.
	wake    chan struct{}
	quit    chan struct{}
	stopped sync.Once
	// dirty is the monitor's: frames went in this turn and the flush is
	// still owed.
	dirty bool
	// wmu is held by whoever is writing to the connection — the writer
	// goroutine, which waits for it, or the end of a turn, which only tries
	// — and guards the fields below (batchFrames is written under mu as
	// well, so that depth may read it). batch is what was swapped out of buf
	// for the write in progress and off how much of it the live connection
	// has taken. A failed write leaves batch there, and the next connection
	// resends all of it, behind its HELLO. The kernel may have taken a
	// prefix, so the remote can see duplicates, which the protocols tolerate
	// (quorums dedupe by sender, merges are idempotent). spare is the last
	// batch's buffer, the next swap's buf.
	wmu         sync.Mutex
	batch       []byte
	off         int
	batchFrames int
	spare       []byte
	// raw is the live connection, for the end of a turn to write to without
	// blocking (nil while there is none, or it is not a syscall.Conn).
	// tryWrite is its callback — one per link, not a closure per write —
	// and leaves in wrote how many bytes the socket took.
	raw      syscall.RawConn
	tryWrite func(fd uintptr) bool
	wrote    int
}

func newLink() link {
	return link{wake: make(chan struct{}, 1), quit: make(chan struct{})}
}

func (l *link) stop() { l.stopped.Do(func() { close(l.quit) }) }

// push queues one encoded frame, first dropping the oldest queued frame
// if the link already holds max of them (today's overflow policy, see the
// package comment; blocking would stall the sender's turn, and with it the
// node). It reports whether it dropped one.
func (l *link) push(frame []byte, max int) (dropped bool) {
	l.mu.Lock()
	if l.frames >= max {
		l.buf = l.buf[:copy(l.buf, l.buf[wire.FrameSize(l.buf):])]
		l.frames--
		dropped = true
	}
	l.buf = append(l.buf, frame...)
	l.frames++
	l.mu.Unlock()
	return dropped
}

// kick wakes the writer; a token already waiting covers this frame too.
func (l *link) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// depth reports how many frames are queued or in the writer's hands.
func (l *link) depth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frames + l.batchFrames
}

// drain is the writer's life on one connection: HELLO first where asked
// (a dialed connection: flushed alone, so the remote binds the link's
// identity before protocol traffic arrives), then the connection is the
// link's live one, for turns to write to, and the writer flushes what they
// leave, once per wake — until the connection breaks or connDead closes
// (returns true: redial) or the link or the transport stops (returns
// false). It closes conn on the way out.
func (l *link) drain(t *Transport, conn net.Conn, hello bool, connDead <-chan struct{}) bool {
	defer conn.Close()
	if hello {
		b, err := wire.AppendFrameBytes(nil, t.helloFrame())
		if err != nil {
			return false
		}
		if n, _ := writeAll(conn, b); n < len(b) {
			return true
		}
		t.stats.FramesSent.Add(1)
	}
	l.attach(conn)
	defer l.attach(nil)
	for l.flush(t, conn) {
		select {
		case <-l.wake:
		case <-l.quit:
			return false
		case <-t.quit:
			return false
		case <-connDead:
			return true
		}
	}
	return true
}

// attach makes conn the link's live connection, or with nil leaves it
// with none: whatever part of the batch the old one took, the next one
// starts the batch over.
func (l *link) attach(conn net.Conn) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.raw, l.off = nil, 0
	if sc, ok := conn.(syscall.Conn); ok {
		l.raw, _ = sc.SyscallConn()
	}
	if l.tryWrite == nil {
		l.tryWrite = func(fd uintptr) bool {
			l.wrote, _ = syscall.Write(int(fd), l.batch[l.off:])
			return true // whatever the socket said: never wait for it
		}
	}
}

// flush hands every queued frame (or what is left of the batch in flight)
// to ONE write. The link's writer passes its connection and waits for the
// socket; the end of a turn passes nil and does not — it writes what the
// live connection will take now and wakes the writer for the rest, or for
// all of it when the writer is busy or there is nothing it can write to
// without blocking. It reports false when the writer's write failed: the
// batch stays, for the next connection.
func (l *link) flush(t *Transport, conn net.Conn) bool {
	if conn != nil {
		l.wmu.Lock()
	} else if !l.wmu.TryLock() {
		l.kick()
		return true
	}
	defer l.wmu.Unlock()
	if conn == nil && l.raw == nil {
		l.kick()
		return true
	}
	// resumed: the batch was left by an earlier write the socket cut
	// short, so frames queued since may have had their wake spent on it.
	resumed := l.batchFrames != 0
	if !resumed {
		l.mu.Lock()
		if l.frames > 0 {
			l.batch, l.batchFrames = l.buf, l.frames
			l.buf, l.frames, l.spare = l.spare, 0, nil
		}
		l.mu.Unlock()
	}
	if l.batchFrames == 0 {
		return true
	}
	var n int
	if conn != nil {
		n, _ = writeAll(conn, l.batch[l.off:])
	} else {
		t.stats.InlineFlushes.Add(1)
		l.wrote = 0 // a closed connection fails without calling back
		l.raw.Write(l.tryWrite)
		n = max(l.wrote, 0)
	}
	if n > 0 {
		t.stats.FlushWrites.Add(1)
		t.stats.FlushedBytes.Add(uint64(n))
	}
	if l.off += n; l.off < len(l.batch) {
		if conn != nil {
			return false
		}
		t.stats.FlushHandoffs.Add(1)
		l.kick() // the writer sees the error, if that is what it was
		return true
	}
	t.stats.FlushedFrames.Add(uint64(l.batchFrames))
	t.stats.LastBatchFrames.Store(uint64(l.batchFrames))
	if cap(l.batch) <= maxSpare {
		l.spare = l.batch[:0]
	}
	l.mu.Lock()
	l.batch, l.batchFrames, l.off = nil, 0, 0
	queued := l.frames > 0
	l.mu.Unlock()
	if resumed && queued {
		l.kick()
	}
	return true
}

// writeAll writes b under a deadline, which it lifts again: a deadline
// that has passed fails every later write, a turn's non-blocking one too.
func writeAll(conn net.Conn, b []byte) (int, error) {
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Write(b)
	conn.SetWriteDeadline(time.Time{})
	return n, err
}
