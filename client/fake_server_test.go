package client

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/wire"
)

// fakeServer is a scripted wire endpoint: it completes the client
// handshake (HELLO + VIEW naming itself as the single unsharded member)
// and then answers each FORWARD according to the script — or stays
// silent when the script returns nil, which is how the tests manufacture
// the ambiguous-write condition deterministically.
type fakeServer struct {
	ln     net.Listener
	ops    atomic.Uint64
	script func(op core.ForwardMsg, nth uint64) *core.ForwardedMsg

	mu    sync.Mutex
	conns []net.Conn
}

func newFakeServer(t *testing.T, script func(op core.ForwardMsg, nth uint64) *core.ForwardedMsg) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, script: script}
	t.Cleanup(fs.close)
	go fs.acceptLoop()
	return fs
}

func (fs *fakeServer) addr() string { return fs.ln.Addr().String() }

func (fs *fakeServer) close() {
	fs.ln.Close()
	fs.mu.Lock()
	for _, c := range fs.conns {
		c.Close()
	}
	fs.mu.Unlock()
}

// view is the frame the fake advertises: one unsharded member (itself).
func (fs *fakeServer) view(version uint64) wire.Frame {
	return wire.Frame{Type: wire.FrameView, ViewVersion: version,
		Peers: []wire.Peer{{ID: 1, Addr: fs.addr()}}}
}

func (fs *fakeServer) acceptLoop() {
	for {
		conn, err := fs.ln.Accept()
		if err != nil {
			return
		}
		fs.mu.Lock()
		fs.conns = append(fs.conns, conn)
		fs.mu.Unlock()
		go fs.serve(conn)
	}
}

func (fs *fakeServer) serve(conn net.Conn) {
	var wmu sync.Mutex
	reply := func(f wire.Frame) {
		wmu.Lock()
		wire.WriteFrame(conn, f)
		wmu.Unlock()
	}
	scn := wire.NewScanner(conn)
	for {
		f, err := scn.Next()
		if err != nil {
			return
		}
		switch f.Type {
		case wire.FrameHello:
			reply(wire.Frame{Type: wire.FrameHello, From: 1, Addr: fs.addr()})
			reply(fs.view(1))
		case wire.FrameViewReq:
			reply(fs.view(1))
		case wire.FrameMsg:
			m, ok := f.Msg.(*core.ForwardMsg)
			if !ok {
				continue
			}
			fm := *m
			nth := fs.ops.Add(1)
			if out := fs.script(fm, nth); out != nil {
				out.Op = fm.Op
				out.Reg = fm.Reg
				if out.From == 0 {
					out.From = 1
				}
				reply(wire.Frame{Type: wire.FrameMsg, Msg: *out})
			}
		}
	}
}

// push sends an unsolicited frame on every live connection (the server-
// initiated VIEW push path).
func (fs *fakeServer) push(f wire.Frame) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, c := range fs.conns {
		wire.WriteFrame(c, f)
	}
}

// TestAmbiguousWriteNotRetried is the contract the tentpole spec calls
// out by name: a write whose target goes silent after the frame was sent
// fails as a typed AmbiguousWriteError wrapping ErrUnacknowledged — and
// the client must NOT have re-sent it.
func TestAmbiguousWriteNotRetried(t *testing.T) {
	fs := newFakeServer(t, func(core.ForwardMsg, uint64) *core.ForwardedMsg {
		return nil // swallow every op
	})
	c, err := Dial(Config{
		Seeds:       []string{fs.addr()},
		DialTimeout: time.Second,
		OpTimeout:   300 * time.Millisecond,
		MaxAttempts: 5,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	_, err = c.Write(7, 42)
	if !errors.Is(err, ErrUnacknowledged) {
		t.Fatalf("silent write: err = %v, want ErrUnacknowledged", err)
	}
	var amb *AmbiguousWriteError
	if !errors.As(err, &amb) {
		t.Fatalf("silent write: err = %T, want *AmbiguousWriteError", err)
	}
	if amb.Key != 7 || amb.Val != 42 {
		t.Fatalf("ambiguous error names key=%d val=%d, want 7/42", amb.Key, amb.Val)
	}
	if got := fs.ops.Load(); got != 1 {
		t.Fatalf("server saw %d op frames, want exactly 1 (no blind retry)", got)
	}
	if s := c.Stats(); s.AmbiguousWrites != 1 {
		t.Fatalf("Stats().AmbiguousWrites = %d, want 1", s.AmbiguousWrites)
	}
}

// TestRefusedWriteRetries: an explicit refusal promises the op was NOT
// applied, so the client may — must — retry it. First attempt refused,
// second succeeds.
func TestRefusedWriteRetries(t *testing.T) {
	fs := newFakeServer(t, func(m core.ForwardMsg, nth uint64) *core.ForwardedMsg {
		if nth == 1 {
			return &core.ForwardedMsg{Code: core.ForwardWrongReplica}
		}
		return &core.ForwardedMsg{Code: core.ForwardOK,
			Value: core.VersionedValue{Val: m.Val, SN: 1}}
	})
	c, err := Dial(Config{
		Seeds:        []string{fs.addr()},
		DialTimeout:  400 * time.Millisecond,
		OpTimeout:    time.Second,
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	v, err := c.Write(3, 99)
	if err != nil {
		t.Fatalf("refused-then-accepted write: %v", err)
	}
	if v.Val != 99 || v.SN != 1 {
		t.Fatalf("write returned %+v, want ⟨99,#1⟩", v)
	}
	if got := fs.ops.Load(); got != 2 {
		t.Fatalf("server saw %d op frames, want 2 (one refusal, one retry)", got)
	}
	if s := c.Stats(); s.Retries < 1 {
		t.Fatalf("Stats().Retries = %d, want >= 1", s.Retries)
	}
}

// TestReadTimeoutRetries: reads are idempotent, so a silent server costs
// a timeout and a retry, never an ambiguous failure.
func TestReadTimeoutRetries(t *testing.T) {
	fs := newFakeServer(t, func(m core.ForwardMsg, nth uint64) *core.ForwardedMsg {
		if nth == 1 {
			return nil // swallow the first read
		}
		return &core.ForwardedMsg{Code: core.ForwardOK,
			Value: core.VersionedValue{Val: 5, SN: 2}}
	})
	c, err := Dial(Config{
		Seeds:       []string{fs.addr()},
		DialTimeout: time.Second,
		OpTimeout:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	v, err := c.Read(11)
	if err != nil {
		t.Fatalf("read after one swallowed attempt: %v", err)
	}
	if v.Val != 5 || v.SN != 2 {
		t.Fatalf("read = %+v, want ⟨5,#2⟩", v)
	}
	if got := fs.ops.Load(); got < 2 {
		t.Fatalf("server saw %d op frames, want >= 2 (timeout then retry)", got)
	}
}

// TestUnsolicitedViewPushAdopted: servers push fresh VIEWs on membership
// changes; the client must adopt a newer push from the same source
// without being asked.
func TestUnsolicitedViewPushAdopted(t *testing.T) {
	fs := newFakeServer(t, func(core.ForwardMsg, uint64) *core.ForwardedMsg { return nil })
	c, err := Dial(Config{Seeds: []string{fs.addr()}, DialTimeout: time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if got := c.ViewVersion(); got != 1 {
		t.Fatalf("bootstrap view version = %d, want 1", got)
	}

	f := fs.view(2)
	f.Peers = append(f.Peers, wire.Peer{ID: 9, Addr: "127.0.0.1:9"})
	fs.push(f)

	deadline := time.Now().Add(2 * time.Second)
	for c.ViewVersion() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.ViewVersion(); got != 2 {
		t.Fatalf("pushed view not adopted: version = %d, want 2", got)
	}
	if got := len(c.Members()); got != 2 {
		t.Fatalf("Members() = %d ids after push, want 2", got)
	}

	// A STALE push (version rewound) must be ignored.
	fs.push(fs.view(1))
	time.Sleep(50 * time.Millisecond)
	if got := c.ViewVersion(); got != 2 {
		t.Fatalf("stale push adopted: version = %d, want 2", got)
	}
}
