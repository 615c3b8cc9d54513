package tcp

import (
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// dialTimeout is the transport's bound on one dial.
const dialTimeout = time.Second

func listenLoopback(t *testing.T) *Listener {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// acceptAll accepts and closes connections on l until it is closed.
func acceptAll(l *Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.Close()
	}
}

// TestDialsReturnConnectedAtOnce: a dial to a loopback listener is
// connected long before its timeout, every time. The connect is usually
// over before the socket enters the poller, and the poller forgets that
// edge when the wait begins; a dial that waited before it asked the
// socket would run into its timeout.
func TestDialsReturnConnectedAtOnce(t *testing.T) {
	l := listenLoopback(t)
	go acceptAll(l)
	addr := l.Addr().String()
	var slowest time.Duration
	for i := range 1000 {
		start := time.Now()
		c, err := Dial(context.Background(), addr, dialTimeout)
		took := time.Since(start)
		if err != nil {
			t.Fatalf("dial %d: %v after %v", i, err, took)
		}
		c.Close()
		slowest = max(slowest, took)
	}
	if slowest > dialTimeout/4 {
		t.Fatalf("the slowest of 1000 loopback dials took %v, against a timeout of %v", slowest, dialTimeout)
	}
}

// TestDialRefusedFailsAtOnce: nobody listens, and the dial says so at
// once rather than at its timeout.
func TestDialRefusedFailsAtOnce(t *testing.T) {
	l := listenLoopback(t)
	addr := l.Addr().String()
	l.Close()
	start := time.Now()
	c, err := Dial(context.Background(), addr, dialTimeout)
	if err == nil {
		c.Close()
		t.Fatalf("dial to a closed port %s connected", addr)
	}
	if took := time.Since(start); !errors.Is(err, syscall.ECONNREFUSED) || took > dialTimeout/4 {
		t.Fatalf("dial to a closed port: %v after %v, want connection refused at once", err, took)
	}
}

// fullListener listens on loopback with a backlog of 0 and fills its
// accept queue, which nobody drains: the kernel drops every further SYN,
// so a dial to the returned address cannot complete.
func fullListener(t *testing.T) string {
	t.Helper()
	fd, err := socket(syscall.AF_INET)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := addrPort(sa).String()
	for range 8 {
		c, err := Dial(context.Background(), addr, 100*time.Millisecond)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return addr
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
	}
	t.Fatalf("8 connections to a listener of backlog 0 all completed")
	return ""
}

// TestDialToFullQueueTimesOut: a dial whose SYN is dropped fails when
// its timeout passes, not before and not much after; a cancelled context
// ends the same wait at once.
func TestDialToFullQueueTimesOut(t *testing.T) {
	addr := fullListener(t)
	start := time.Now()
	c, err := Dial(context.Background(), addr, dialTimeout)
	took := time.Since(start)
	if err == nil {
		c.Close()
		t.Fatalf("dial to a full accept queue connected")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) || took < dialTimeout || took > dialTimeout+dialTimeout/2 {
		t.Fatalf("dial to a full accept queue: %v after %v, want a timeout at %v", err, took, dialTimeout)
	}

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start = time.Now()
	c, err = Dial(ctx, addr, dialTimeout)
	took = time.Since(start)
	if err == nil {
		c.Close()
		t.Fatalf("cancelled dial connected")
	}
	if !errors.Is(err, context.Canceled) || took > dialTimeout/2 {
		t.Fatalf("dial cancelled at 50ms: %v after %v", err, took)
	}
}

// TestCloseEndsAccept: closing a listener wakes an Accept waiting on it,
// with os.ErrClosed.
func TestCloseEndsAccept(t *testing.T) {
	l := listenLoopback(t)
	errc := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	l.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, os.ErrClosed) {
			t.Fatalf("Accept after Close: %v, want os.ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Accept still waiting a second after Close")
	}
}

// TestConnReadsWritesAndDeadlines: bytes cross both ways, a read
// deadline fails the read with os.ErrDeadlineExceeded, CloseWrite reads
// as io.EOF on the other side, and the accepted side names the dialer.
func TestConnReadsWritesAndDeadlines(t *testing.T) {
	l := listenLoopback(t)
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	d, err := Dial(context.Background(), l.Addr().String(), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	a := <-accepted
	defer a.Close()
	if got := a.RemoteAddr(); !got.Addr().Is4() || got.Addr().String() != "127.0.0.1" {
		t.Fatalf("accepted connection's remote is %v", got)
	}
	if _, err := d.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(a, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("read %q, %v", buf, err)
	}
	a.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := a.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past its deadline: %v", err)
	}
	a.SetReadDeadline(time.Time{})
	if err := d.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if n, err := a.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("read after the remote's CloseWrite: %d, %v; want io.EOF", n, err)
	}
}

// TestListenAddrPrintsAsNet: a listener reports its address exactly as
// a net.Listener bound the same way does, bar the port: the address is
// a process's identity in every address book and on the wire.
func TestListenAddrPrintsAsNet(t *testing.T) {
	for _, addr := range []string{"127.0.0.1:0", "[::1]:0", ":0", "0.0.0.0:0", "[::]:0"} {
		theirs, err := net.Listen("tcp", addr)
		if err != nil {
			t.Logf("%s: net cannot listen here either (%v)", addr, err)
			continue
		}
		theirs.Close()
		ours, err := Listen(addr)
		if err != nil {
			t.Fatalf("Listen(%q): %v", addr, err)
		}
		ours.Close()
		host := func(s string) string { return s[:strings.LastIndexByte(s, ':')] }
		if got, want := ours.Addr().String(), theirs.Addr().String(); host(got) != host(want) {
			t.Errorf("Listen(%q).Addr() = %s; net's prints %s", addr, got, want)
		}
	}
}

// TestParseAddrTakesLiteralsOnly: an IP literal or an empty host, with a
// numeric port; never a name.
func TestParseAddrTakesLiteralsOnly(t *testing.T) {
	for _, s := range []string{"127.0.0.1:7001", "[::1]:7001", ":7001", "0.0.0.0:0", "[fe80::1%2]:80", "[::ffff:10.0.0.1]:1"} {
		if _, err := ParseAddr(s); err != nil {
			t.Errorf("ParseAddr(%q): %v", s, err)
		}
	}
	for _, s := range []string{"localhost:7001", "node-2:7001", "127.0.0.1", "127.0.0.1:http", "127.0.0.1:65536", "::1:7001", "[fe80::1%eth0]:80", ":", ""} {
		if ap, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) = %v, want an error", s, ap)
		}
	}
}

// sockopt reads one integer option of c's socket.
func sockopt(t *testing.T, c syscall.Conn, level, opt int) int {
	t.Helper()
	rc, err := c.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var v int
	var gerr error
	if err := rc.Control(func(fd uintptr) { v, gerr = syscall.GetsockoptInt(int(fd), level, opt) }); err != nil {
		t.Fatal(err)
	}
	if gerr != nil {
		t.Fatalf("getsockopt(%d, %d): %v", level, opt, gerr)
	}
	return v
}

// cloexec reports whether c's descriptor is closed on exec.
func cloexec(t *testing.T, c syscall.Conn) bool {
	t.Helper()
	rc, err := c.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var flags uintptr
	var errno syscall.Errno
	rc.Control(func(fd uintptr) { flags, _, errno = syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFD, 0) })
	if errno != 0 {
		t.Fatal(errno)
	}
	return flags&syscall.FD_CLOEXEC != 0
}

// TestSocketOptionsMatchNet: accepted and dialed connections carry the
// options package net gives its own — TCP_NODELAY, keep-alive after 15 s
// idle every 15 s, 9 probes — listeners SO_REUSEADDR, and every socket is
// closed on exec. Each value is checked against net's on the same host.
func TestSocketOptionsMatchNet(t *testing.T) {
	l := listenLoopback(t)
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	d, err := Dial(context.Background(), l.Addr().String(), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	a := <-accepted
	defer a.Close()

	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	nd, err := net.Dial("tcp", nl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	na, err := nl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()

	opts := []struct {
		name       string
		level, opt int
		want       int // 0: whatever net has, as long as it is not 0
	}{
		{"TCP_NODELAY", syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 0},
		{"SO_KEEPALIVE", syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 0},
		{"keep-alive idle", syscall.IPPROTO_TCP, tcpKeepIdle, 15},
		{"TCP_KEEPINTVL", syscall.IPPROTO_TCP, tcpKeepIntvl, 15},
		{"TCP_KEEPCNT", syscall.IPPROTO_TCP, tcpKeepCnt, 9},
	}
	for _, side := range []struct {
		name         string
		ours, theirs syscall.Conn
	}{{"dialed", d, nd.(*net.TCPConn)}, {"accepted", a, na.(*net.TCPConn)}} {
		for _, o := range opts {
			got, want := sockopt(t, side.ours, o.level, o.opt), sockopt(t, side.theirs, o.level, o.opt)
			if got != want || got == 0 || o.want != 0 && got != o.want {
				t.Errorf("%s connection: %s = %d; net's has %d", side.name, o.name, got, want)
			}
		}
		if !cloexec(t, side.ours) {
			t.Errorf("%s connection is not closed on exec", side.name)
		}
	}
	lr := sockopt(t, l.f, syscall.SOL_SOCKET, syscall.SO_REUSEADDR)
	if nr := sockopt(t, nl.(*net.TCPListener), syscall.SOL_SOCKET, syscall.SO_REUSEADDR); lr == 0 || lr != nr {
		t.Errorf("listener: SO_REUSEADDR = %d; net's has %d", lr, nr)
	}
	if !cloexec(t, l.f) {
		t.Error("listener is not closed on exec")
	}
}

// TestBacklogReachesSomaxconn: the backlog asked for is at least the
// kernel's cap, so the kernel's somaxconn is what a listener gets, as a
// net.Listener gets it.
func TestBacklogReachesSomaxconn(t *testing.T) {
	b, err := os.ReadFile("/proc/sys/net/core/somaxconn")
	if err != nil {
		t.Skipf("no somaxconn to read: %v", err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	if backlog < n {
		t.Fatalf("backlog %d is under somaxconn %d", backlog, n)
	}
}

// TestUnmappedRemote: a dual-stack listener names an IPv4 dialer by its
// IPv4 address, as package net does.
func TestUnmappedRemote(t *testing.T) {
	l, err := Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	d, err := Dial(context.Background(), netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), l.Addr().Port()).String(), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	a := <-accepted
	defer a.Close()
	if got := a.RemoteAddr().Addr().String(); got != "127.0.0.1" {
		t.Fatalf("remote of an IPv4 dialer on a dual-stack listener is %s", got)
	}
}
