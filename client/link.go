package client

import (
	"net"
	"runtime"
	"sync"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/wire"
)

// pendingOp is one in-flight operation. It sits in its connection's
// pending table from send until exactly one party takes it out — the
// reader holding the reply, the sweep past its deadline, the writer when
// the connection dies — and that party alone sends on done, so a pooled
// op never receives a stale outcome.
type pendingOp struct {
	id core.OpID
	// start is the connection's appended count when the op's frame went
	// into the buffer: the stream offset of the frame's first byte.
	start uint64
	// deadline is when the sweep gives up on the op, as time since the
	// client's epoch.
	deadline time.Duration
	done     chan opOutcome
}

// opOutcome is how a pending op ends: a reply, or errNotSent/errMaybeSent.
type opOutcome struct {
	msg core.ForwardedMsg
	err error
}

var opPool = sync.Pool{New: func() any { return &pendingOp{done: make(chan opOutcome, 1)} }}

// maxSpare caps the buffer capacity a connection keeps between flushes.
const maxSpare = 64 << 10

// serverConn is one pooled connection: a link of the kind nettransport
// gives its peers. Senders append encoded frames to buf under mu; one
// writer goroutine swaps buf out and hands it to one conn.Write; one
// reader goroutine owns reads. It is not nettransport's link type: a
// client's append shares its critical section with the pending table, the
// stream offset and the dead flag, the transport's with drop-oldest, and
// what is left to share is the append itself.
type serverConn struct {
	c    *Client
	addr string
	conn net.Conn

	mu     sync.Mutex
	buf    []byte // queued frames, length prefixes included, oldest first
	frames int    // how many frames buf holds
	// appended counts every byte ever put in buf: the stream offset the
	// next frame starts at.
	appended uint64
	pending  map[core.OpID]*pendingOp
	// dead is set, and pending emptied, in one critical section when the
	// connection ends; a send that finds it set was never queued.
	dead bool

	// wake holds at most one token, "buf may hold frames"; hung is closed
	// once the connection is to end (the reader saw it end, or Close).
	wake   chan struct{}
	hung   chan struct{}
	hangUp func()

	// accepted and spare are the writer's. accepted counts the bytes
	// conn.Write has reported taken, successful writes and the prefix of a
	// failed one: a frame that starts at or past it never reached the
	// kernel. spare is the last batch's buffer, the next swap's buf.
	accepted uint64
	spare    []byte
}

func newServerConn(c *Client, addr string, conn net.Conn) *serverConn {
	s := &serverConn{
		c: c, addr: addr, conn: conn,
		pending: make(map[core.OpID]*pendingOp),
		wake:    make(chan struct{}, 1),
		hung:    make(chan struct{}),
	}
	s.hangUp = sync.OnceFunc(func() {
		close(s.hung)
		conn.Close()
	})
	return s
}

// alive reports whether the connection is still worth routing to.
func (s *serverConn) alive() bool {
	select {
	case <-s.hung:
		return false
	default:
		return true
	}
}

// send encodes f onto the connection's buffer and wakes the writer; with
// an op, it enters the pending table in the same critical section. It
// reports false when nothing was queued: the connection is dead, or f
// does not encode.
func (s *serverConn) send(f wire.Frame, op *pendingOp) bool {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return false
	}
	b, err := wire.AppendFrameBytes(s.buf, f)
	if err != nil {
		s.mu.Unlock()
		return false
	}
	if op != nil {
		op.start = s.appended
		s.pending[op.id] = op
	}
	s.appended += uint64(len(b) - len(s.buf))
	s.buf = b
	s.frames++
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default: // a token already waiting covers this frame too
	}
	return true
}

// take removes and returns the pending op with this id, if there is one.
func (s *serverConn) take(id core.OpID) *pendingOp {
	s.mu.Lock()
	op := s.pending[id]
	if op != nil {
		delete(s.pending, id)
	}
	s.mu.Unlock()
	return op
}

// writeLoop is the connection's writer: one conn.Write per wake, carrying
// every frame queued by then. It is also where the connection dies: only
// the writer knows how far the kernel got.
func (s *serverConn) writeLoop() {
	defer s.c.wg.Done()
	defer s.fail()
	for {
		select {
		case <-s.wake:
		case <-s.hung:
			return
		}
		// The wake comes from the first sender to find the buffer idle, and
		// the scheduler runs this goroutine the moment that sender parks.
		// Going to the back of the run queue once lets every sender that is
		// already runnable append first: that is what makes a batch.
		runtime.Gosched()
		s.mu.Lock()
		batch, n := s.buf, s.frames
		if n > 0 {
			s.buf, s.frames, s.spare = s.spare, 0, nil
		}
		s.mu.Unlock()
		if n == 0 {
			continue // the last swap took this wake's frames too
		}
		s.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		w, err := s.conn.Write(batch)
		s.accepted += uint64(w)
		if err != nil {
			return
		}
		s.c.stats.flushes.Add(1)
		s.c.stats.framesSent.Add(uint64(n))
		if cap(batch) <= maxSpare {
			s.spare = batch[:0]
		}
	}
}

// fail ends the connection: it is marked dead and every pending op is
// resolved in one critical section, so no op can be queued behind the
// verdict. An op whose frame starts at or past the accepted count is
// still in the buffer or behind the point a failed write reached: it
// provably never left (errNotSent, re-routed, writes too). Any other may
// have reached the server (errMaybeSent) — deliberately not a refusal,
// which would promise "not applied", and never resent on a new connection.
func (s *serverConn) fail() {
	s.hangUp()
	s.mu.Lock()
	s.dead = true
	for id, op := range s.pending {
		delete(s.pending, id)
		if op.start >= s.accepted {
			op.done <- opOutcome{err: errNotSent}
		} else {
			op.done <- opOutcome{err: errMaybeSent}
		}
	}
	s.buf, s.frames = nil, 0
	s.mu.Unlock()
}

// readLoop drains one connection: op replies resolve pending ops, VIEW
// frames refresh the cache. When the connection ends it hangs up, and the
// writer fails what was pending.
func (s *serverConn) readLoop() {
	defer s.c.wg.Done()
	defer s.hangUp()
	scn := wire.NewScanner(s.conn)
	for {
		f, err := scn.Next()
		if err != nil {
			return
		}
		switch f.Type {
		case wire.FrameMsg:
			if fm, ok := f.Msg.(core.ForwardedMsg); ok {
				// A reply to an op the sweep already failed finds nothing.
				if op := s.take(fm.Op); op != nil {
					op.done <- opOutcome{msg: fm}
				}
			}
		case wire.FrameView:
			s.c.adoptView(s.addr, f)
		case wire.FrameHello:
			// The server naming itself; nothing to record — replies carry
			// the serving id per op.
		}
	}
}

// sweep fails every pending op whose deadline is at or before now. The
// frame may be on the wire or still in the buffer, to leave later: either
// way the server may yet see it.
func (s *serverConn) sweep(now time.Duration) {
	s.mu.Lock()
	for id, op := range s.pending {
		if op.deadline <= now {
			delete(s.pending, id)
			op.done <- opOutcome{err: errMaybeSent}
		}
	}
	s.mu.Unlock()
}

// sweepsPerTimeout is how many times per OpTimeout the client looks for
// overdue operations: one that draws no reply fails between OpTimeout and
// OpTimeout plus an eighth.
const sweepsPerTimeout = 8

// sweepLoop is the client's one timer: every operation's deadline is a
// field the sweep reads, not a timer of its own.
func (c *Client) sweepLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(max(c.cfg.OpTimeout/sweepsPerTimeout, time.Millisecond))
	defer tick.Stop()
	var conns []*serverConn
	for {
		select {
		case <-c.quit:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		conns = conns[:0]
		for _, sc := range c.conns {
			conns = append(conns, sc)
		}
		c.mu.Unlock()
		now := time.Since(c.epoch)
		for _, sc := range conns {
			sc.sweep(now)
		}
	}
}
