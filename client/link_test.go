package client

// White-box tests for the client's link: a serverConn is driven over
// scripted net.Conns, so what one write carries, where a failed write
// draws the sent/not-sent line, and what Close leaves behind are checked
// without timing.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/wire"
)

// scriptConn is a net.Conn that records every Write on its own and
// accepts failAfter bytes in total: the write that crosses the budget
// takes the prefix and fails, the shape of a mid-batch TCP failure.
// failAfter < 0 never fails. Read blocks until Close.
type scriptConn struct {
	mu        sync.Mutex
	writes    [][]byte
	taken     int
	failAfter int
	closeOnce sync.Once
	closed    chan struct{}
}

func newScriptConn(failAfter int) *scriptConn {
	return &scriptConn{failAfter: failAfter, closed: make(chan struct{})}
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	n, err := len(p), error(nil)
	if c.failAfter >= 0 && c.failAfter-c.taken < n {
		n, err = c.failAfter-c.taken, errors.New("scripted connection failure")
	}
	c.writes = append(c.writes, append([]byte(nil), p[:n]...))
	c.taken += n
	return n, err
}

func (c *scriptConn) written() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

func (c *scriptConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *scriptConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}
func (c *scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// attach pools a connection to addr over conn, as getConn would after a
// dial, replacing (and hanging up) what was pooled there. Only the reader
// starts: the test queues what it wants behind the held writer and then
// calls the returned release.
func attach(c *Client, addr string, conn net.Conn) (sc *serverConn, release func()) {
	sc = newServerConn(c, addr, conn)
	c.mu.Lock()
	if old := c.conns[addr]; old != nil {
		old.hangUp()
	}
	c.conns[addr] = sc
	c.wg.Add(2)
	c.mu.Unlock()
	go sc.readLoop()
	return sc, func() { go sc.writeLoop() }
}

func (s *serverConn) queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames
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

// forwards decodes the FORWARD frames in b, in order.
func forwards(t *testing.T, b []byte) []core.ForwardMsg {
	t.Helper()
	scn := wire.NewScanner(bytes.NewReader(b))
	var out []core.ForwardMsg
	for {
		f, err := scn.Next()
		if err != nil {
			return out
		}
		m, ok := f.Msg.(*core.ForwardMsg)
		if !ok {
			t.Fatalf("frame %+v is not a FORWARD", f)
		}
		out = append(out, *m)
	}
}

// okServer answers every operation and records how often it saw each key.
func okServer(t *testing.T) (*fakeServer, func() map[int64]int) {
	var mu sync.Mutex
	seen := make(map[int64]int)
	fs := newFakeServer(t, func(m core.ForwardMsg, _ uint64) *core.ForwardedMsg {
		mu.Lock()
		seen[int64(m.Reg)]++
		mu.Unlock()
		return &core.ForwardedMsg{Code: core.ForwardOK, Value: core.VersionedValue{Val: m.Val, SN: 1}}
	})
	return fs, func() map[int64]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[int64]int, len(seen))
		for k, n := range seen {
			out[k] = n
		}
		return out
	}
}

// TestQueuedOpsLeaveInOneWrite: everything queued while the writer is
// held goes out in one conn.Write, in the order it was queued.
func TestQueuedOpsLeaveInOneWrite(t *testing.T) {
	const n = 17
	fs, _ := okServer(t)
	c, err := Dial(Config{Seeds: []string{fs.addr()}, DialTimeout: time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	waitFor(t, "the HELLO's flush to be counted", func() bool { return c.Stats().Flushes == 1 })
	before := c.Stats()
	conn := newScriptConn(-1)
	sc, release := attach(c, fs.addr(), conn)
	for i := 0; i < n; i++ {
		op := opPool.Get().(*pendingOp)
		op.id = core.OpID(100 + i)
		op.deadline = time.Hour
		if !sc.send(wire.Frame{Type: wire.FrameMsg, Msg: core.ForwardMsg{Op: op.id, Reg: core.RegisterID(i)}}, op) {
			t.Fatalf("send %d refused on a live connection", i)
		}
	}
	release()
	waitFor(t, "the write", func() bool { return len(conn.written()) > 0 })
	waitFor(t, "the flush to be counted", func() bool { return c.Stats().Flushes > before.Flushes })
	writes := conn.written()
	if len(writes) != 1 {
		t.Fatalf("%d writes for %d queued frames, want 1", len(writes), n)
	}
	got := forwards(t, writes[0])
	if len(got) != n {
		t.Fatalf("the write carried %d frames, want %d", len(got), n)
	}
	for i, m := range got {
		if m.Op != core.OpID(100+i) {
			t.Fatalf("frame %d is op %d, want %d (queue order)", i, m.Op, 100+i)
		}
	}
	after := c.Stats()
	if f, s := after.Flushes-before.Flushes, after.FramesSent-before.FramesSent; f != 1 || s != n {
		t.Fatalf("Stats: %d flushes, %d frames sent, want 1 and %d", f, s, n)
	}
}

// TestFailedWriteSplitsTheBatch pins where a dying connection draws the
// line through a batch: a write whose frame starts before the byte the
// kernel stopped at may have reached the server and fails ambiguous,
// never resent; one that starts at or after it provably never left and is
// re-routed — served exactly once, on a new connection.
func TestFailedWriteSplitsTheBatch(t *testing.T) {
	const n, cut = 8, 3
	frameLen := len(mustFrame(t, core.ForwardMsg{IsWrite: true}))
	for _, tc := range []struct {
		name      string
		failAfter int
		ambiguous int // the first this-many writes
	}{
		{"mid-frame", cut*frameLen + 5, cut + 1},
		{"frame boundary", cut * frameLen, cut},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, seen := okServer(t)
			c, err := Dial(Config{
				Seeds:        []string{fs.addr()},
				DialTimeout:  400 * time.Millisecond,
				RetryBackoff: time.Millisecond,
			})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()
			conn := newScriptConn(tc.failAfter)
			sc, release := attach(c, fs.addr(), conn)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[i] = c.Write(int64(i), int64(10+i))
				}()
				waitFor(t, "the write to be queued", func() bool { return sc.queued() == i+1 })
			}
			release()
			wg.Wait()
			for i, err := range errs {
				if i < tc.ambiguous {
					if !errors.Is(err, ErrUnacknowledged) {
						t.Errorf("write %d (frame starts before byte %d): err = %v, want ErrUnacknowledged", i, tc.failAfter, err)
					}
				} else if err != nil {
					t.Errorf("write %d (frame starts at or after byte %d): err = %v, want a clean re-route", i, tc.failAfter, err)
				}
			}
			got := seen()
			for i := 0; i < n; i++ {
				want := 0
				if i >= tc.ambiguous {
					want = 1
				}
				if got[int64(i)] != want {
					t.Errorf("server saw write %d %d times, want %d", i, got[int64(i)], want)
				}
			}
			if w := conn.written(); len(w) != 1 || len(w[0]) != tc.failAfter {
				t.Errorf("dead connection took %d writes, want one of %d bytes", len(w), tc.failAfter)
			}
			if s := c.Stats(); s.AmbiguousWrites != uint64(tc.ambiguous) {
				t.Errorf("Stats().AmbiguousWrites = %d, want %d", s.AmbiguousWrites, tc.ambiguous)
			}
		})
	}
}

func mustFrame(t *testing.T, m core.Message) []byte {
	t.Helper()
	b, err := wire.AppendFrameBytes(nil, wire.Frame{Type: wire.FrameMsg, Msg: m})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSendOnDeadConnectionFailsAtOnce: once a connection has ended, an
// operation routed to it is refused as not sent, without waiting out
// OpTimeout behind a socket nobody will write.
func TestSendOnDeadConnectionFailsAtOnce(t *testing.T) {
	fs, _ := okServer(t)
	c, err := Dial(Config{Seeds: []string{fs.addr()}, DialTimeout: time.Second, OpTimeout: time.Minute})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	conn := newScriptConn(-1)
	sc, release := attach(c, fs.addr(), conn)
	release()
	conn.Close() // the reader sees the connection end
	waitFor(t, "the connection to be failed", func() bool {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		return sc.dead
	})
	if _, err := c.roundTrip(sc, core.ForwardMsg{Op: c.nextOp()}); !errors.Is(err, errNotSent) {
		t.Fatalf("roundTrip on a dead connection: err = %v, want errNotSent", err)
	}
}

// TestSweepFailsOverdueOpAndLateReplyIsIgnored: an operation that draws
// no reply is failed by the sweep between OpTimeout and one sweep period
// past it; the reply turning up afterwards finds no one waiting and does
// not leak into a later operation's (pooled) slot.
func TestSweepFailsOverdueOpAndLateReplyIsIgnored(t *testing.T) {
	const timeout = 400 * time.Millisecond
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release()
	fs := newFakeServer(t, func(m core.ForwardMsg, nth uint64) *core.ForwardedMsg {
		if nth == 1 {
			<-hold
		}
		return &core.ForwardedMsg{Code: core.ForwardOK, Value: core.VersionedValue{Val: core.Value(nth), SN: 1}}
	})
	c, err := Dial(Config{Seeds: []string{fs.addr()}, DialTimeout: time.Second, OpTimeout: timeout, MaxAttempts: 1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Read(1)
	took := time.Since(start)
	if !errors.Is(err, ErrUnroutable) {
		t.Fatalf("unanswered read: err = %v, want ErrUnroutable after its one attempt", err)
	}
	// Half a second of slack for a loaded machine.
	if limit := timeout + timeout/sweepsPerTimeout + 500*time.Millisecond; took < timeout || took > limit {
		t.Fatalf("unanswered read failed after %v, want between %v and %v", took, timeout, limit)
	}
	release() // reply 1 leaves now, ahead of anything later on the connection
	for nth := int64(2); nth <= 4; nth++ {
		v, err := c.Read(nth)
		if err != nil {
			t.Fatalf("read %d: %v", nth, err)
		}
		if v.Val != nth {
			t.Fatalf("read %d returned value %d: a stale reply reached the wrong operation", nth, v.Val)
		}
	}
}

// TestCloseWithOpsInFlightLeavesNoGoroutine: Close fails what is in
// flight and returns only once the reader, the writer and the sweep are
// gone.
func TestCloseWithOpsInFlightLeavesNoGoroutine(t *testing.T) {
	const inflight = 64
	fs := newFakeServer(t, func(core.ForwardMsg, uint64) *core.ForwardedMsg { return nil })
	baseline := runtime.NumGoroutine()
	c, err := Dial(Config{Seeds: []string{fs.addr()}, DialTimeout: time.Second, OpTimeout: time.Minute})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	errs := make([]error, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.Write(int64(i), 1)
		}()
	}
	waitFor(t, "every write to reach the server", func() bool { return fs.ops.Load() == inflight })
	c.Close()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrUnacknowledged) {
			t.Errorf("write %d in flight at Close: err = %v, want ErrUnacknowledged", i, err)
		}
	}
	// The fake's per-connection goroutine notices the close on its own time;
	// the client's are gone by now.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before Dial:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// echoConn is an allocation-free server: every FORWARD written to it is
// answered by a FORWARDED with the same op id, patched into a pre-encoded
// frame.
type echoConn struct {
	scriptConn
	reply    []byte // one FORWARDED frame
	replyOp  int    // where its op id sits
	forward  int    // length of one FORWARD frame
	fwdOp    int    // where its op id sits
	replies  chan uint64
	leftover []byte
}

func (c *echoConn) Write(p []byte) (int, error) {
	for off := 0; off+c.forward <= len(p); off += c.forward {
		c.replies <- binary.BigEndian.Uint64(p[off+c.fwdOp:])
	}
	return len(p), nil
}

func (c *echoConn) Read(p []byte) (int, error) {
	if len(c.leftover) == 0 {
		select {
		case op := <-c.replies:
			binary.BigEndian.PutUint64(c.reply[c.replyOp:], op)
			c.leftover = c.reply
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	n := copy(p, c.leftover)
	c.leftover = c.leftover[n:]
	return n, nil
}

// TestRoundTripAllocs pins the per-operation allocations of the pooled
// path at 0: the FORWARD is encoded without escaping its frame on the
// way out, and the FORWARDED decodes on the way in into the record the
// reader handed back for the previous one; the pending op, its channel,
// the frame bytes and the deadline are all reused.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const marker = 0x0102030405060708
	var pat [8]byte
	binary.BigEndian.PutUint64(pat[:], marker)
	fwd := mustFrame(t, core.ForwardMsg{Op: marker})
	rep := mustFrame(t, core.ForwardedMsg{Op: marker, From: 1, Code: core.ForwardOK})
	conn := &echoConn{
		scriptConn: scriptConn{failAfter: -1, closed: make(chan struct{})},
		reply:      rep, replyOp: bytes.Index(rep, pat[:]),
		forward: len(fwd), fwdOp: bytes.Index(fwd, pat[:]),
		replies: make(chan uint64, 16),
	}
	fs, _ := okServer(t)
	c, err := Dial(Config{Seeds: []string{fs.addr()}, DialTimeout: time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	sc, release := attach(c, fs.addr(), conn)
	release()
	trip := func() {
		if _, err := c.roundTrip(sc, core.ForwardMsg{Op: c.nextOp(), Reg: 3}); err != nil {
			t.Fatalf("roundTrip: %v", err)
		}
	}
	trip() // grow the buffers once
	if got := testing.AllocsPerRun(500, trip); got != 0 {
		t.Fatalf("roundTrip allocates %v times per op, want 0", got)
	}
}
