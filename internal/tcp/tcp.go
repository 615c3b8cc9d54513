// Package tcp is the daemon's TCP layer, written on package syscall so
// that cmd/regserve links no package net: without it no cgo resolver is
// linked, the binary is static, and no daemon maps libc, ld.so or a
// resolver. It covers what the daemon does with TCP — listen, accept,
// and dial with a timeout and a context — and nothing else: addresses
// are IP literals (or an empty host) with a numeric port, since nothing
// here can look a name up.
//
// A connection is a non-blocking socket wrapped in an *os.File, so the
// runtime's poller parks its reads and writes and its deadlines work as
// they do on a net.Conn. Sockets get what package net gives them: close on
// exec, TCP_NODELAY, keep-alive probes after 15 s idle every 15 s (9 of
// them), SO_REUSEADDR on listeners, and a listen backlog the kernel caps
// at its somaxconn. A listener on an unspecified address (an empty host,
// 0.0.0.0 or ::) is one dual-stack IPv6 socket, as package net makes it,
// so it reports itself as [::]:port. Linux and macOS are supported.
package tcp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ParseAddr parses "host:port", where host is an IP literal (an IPv6 one
// in brackets) or empty, and port is a number. An empty host comes back
// as the zero netip.Addr: Listen binds every address for it, and Dial
// reaches the local host. A host name is refused: there is no resolver.
func ParseAddr(s string) (netip.AddrPort, error) {
	if port, ok := strings.CutPrefix(s, ":"); ok {
		p, err := strconv.ParseUint(port, 10, 16)
		if err != nil {
			return netip.AddrPort{}, fmt.Errorf("address %q: port must be a number from 0 to 65535", s)
		}
		return netip.AddrPortFrom(netip.Addr{}, uint16(p)), nil
	}
	ap, err := netip.ParseAddrPort(s)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("address %q: want an IP literal or an empty host, and a port (host names are not looked up): %w", s, err)
	}
	if z := ap.Addr().Zone(); z != "" {
		if _, err := strconv.ParseUint(z, 10, 32); err != nil {
			return netip.AddrPort{}, fmt.Errorf("address %q: an IPv6 zone must be an interface index", s)
		}
	}
	return ap, nil
}

// backlog is the listen backlog asked for; the kernel caps it at its
// somaxconn, as it caps package net's.
const backlog = math.MaxInt32

// Listener is a listening TCP socket.
type Listener struct {
	f    *os.File
	rc   syscall.RawConn
	addr netip.AddrPort
}

// Listen binds addr (see ParseAddr) and listens on it. Its errors name
// the call that failed, not addr, which the caller knows.
func Listen(addr string) (*Listener, error) {
	ap, err := ParseAddr(addr)
	if err != nil {
		return nil, err
	}
	fd, err := listen(ap)
	if err != nil {
		return nil, err
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		syscall.Close(fd)
		return nil, os.NewSyscallError("getsockname", err)
	}
	l := &Listener{addr: addrPort(sa)}
	l.f = os.NewFile(uintptr(fd), "tcp listener "+l.addr.String())
	if l.rc, err = l.f.SyscallConn(); err != nil {
		l.f.Close()
		return nil, err
	}
	return l, nil
}

// listen makes the bound, listening socket for ap. An unspecified host
// gets a dual-stack IPv6 socket, or an IPv4 one where IPv6 is missing.
func listen(ap netip.AddrPort) (int, error) {
	ip := ap.Addr()
	var fd int
	var err error
	var sa syscall.Sockaddr
	if !ip.IsValid() || ip.IsUnspecified() {
		sa = &syscall.SockaddrInet6{Port: int(ap.Port())}
		if fd, err = socket(syscall.AF_INET6); errors.Is(err, syscall.EAFNOSUPPORT) {
			sa = &syscall.SockaddrInet4{Port: int(ap.Port())}
			fd, err = socket(syscall.AF_INET)
		}
	} else {
		var family int
		family, sa = sockaddr(ap)
		fd, err = socket(family)
	}
	if err != nil {
		return -1, err
	}
	if err = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1); err != nil {
		err = os.NewSyscallError("setsockopt", err)
	} else if err = syscall.Bind(fd, sa); err != nil {
		err = os.NewSyscallError("bind", err)
	} else if err = syscall.Listen(fd, backlog); err != nil {
		err = os.NewSyscallError("listen", err)
	}
	if err != nil {
		syscall.Close(fd)
		return -1, err
	}
	return fd, nil
}

// Addr is the bound address: it prints as package net prints a
// listener's, [::]:port for an unspecified host.
func (l *Listener) Addr() netip.AddrPort { return l.addr }

// Close closes the listener; an Accept waiting on it returns an error.
func (l *Listener) Close() error { return l.f.Close() }

// Accept waits for the next connection. After Close it fails with an
// error that is os.ErrClosed; running out of descriptors fails with one
// that is syscall.EMFILE or ENFILE.
func (l *Listener) Accept() (*Conn, error) {
	var nfd int
	var sa syscall.Sockaddr
	var err error
	if rerr := l.rc.Read(func(fd uintptr) bool {
		for {
			nfd, sa, err = accept(int(fd))
			// A connection reset while it waited in the queue is not the
			// listener's failure (net retries it too).
			if err != syscall.EINTR && err != syscall.ECONNABORTED {
				return err != syscall.EAGAIN
			}
		}
	}); rerr != nil {
		// The listener has no deadline: closing it is the only way to
		// end the wait.
		return nil, &os.PathError{Op: "accept", Path: l.f.Name(), Err: os.ErrClosed}
	}
	if err != nil {
		return nil, os.NewSyscallError("accept", err)
	}
	if err := setConnOpts(nfd); err != nil {
		syscall.Close(nfd)
		return nil, err
	}
	return newConn(nfd, addrPort(sa)), nil
}

// Conn is a TCP connection: a non-blocking socket in the runtime's poller.
type Conn struct {
	f      *os.File
	remote netip.AddrPort
}

func newConn(fd int, remote netip.AddrPort) *Conn {
	return &Conn{f: os.NewFile(uintptr(fd), "tcp "+remote.String()), remote: remote}
}

// aLongTimeAgo is a deadline in the past: setting it wakes a waiter.
var aLongTimeAgo = time.Unix(1, 0)

// Dial connects to addr (see ParseAddr), failing after timeout or when
// ctx is done, whichever comes first. An empty host dials the local host.
func Dial(ctx context.Context, addr string, timeout time.Duration) (*Conn, error) {
	ap, err := ParseAddr(addr)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	family, sa := sockaddr(ap)
	fd, err := socket(family)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	if err = setConnOpts(fd); err == nil {
		err = syscall.Connect(fd, sa)
	}
	switch err {
	case nil, syscall.EISCONN:
		return newConn(fd, addrPort(sa)), nil
	case syscall.EINPROGRESS, syscall.EALREADY, syscall.EINTR:
		c := newConn(fd, addrPort(sa))
		if err := c.awaitConnect(ctx, time.Now().Add(timeout)); err != nil {
			c.Close()
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		return c, nil
	}
	syscall.Close(fd)
	if _, ok := err.(syscall.Errno); ok {
		err = os.NewSyscallError("connect", err)
	}
	return nil, fmt.Errorf("dial %s: %w", addr, err)
}

// awaitConnect waits until the connect in progress ends, deadline passes
// or ctx is done. It asks the socket before every wait, as package net
// does: RawConn.Write resets the poller's readiness before it calls its
// function, so a connect that finished before the socket was in the
// poller would otherwise wait out the whole deadline for an edge that
// has already come.
func (c *Conn) awaitConnect(ctx context.Context, deadline time.Time) error {
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	rc, err := c.f.SyscallConn()
	if err != nil {
		return err
	}
	c.f.SetWriteDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { c.f.SetWriteDeadline(aLongTimeAgo) })
	var cerr error
	werr := rc.Write(func(fd uintptr) bool {
		n, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_ERROR)
		if err != nil {
			cerr = os.NewSyscallError("getsockopt", err)
			return true
		}
		switch e := syscall.Errno(n); e {
		case syscall.EINPROGRESS, syscall.EALREADY, syscall.EINTR:
			return false
		case syscall.EISCONN:
			return true
		case 0:
			// The poller can wake a waiter early: connected means there
			// is a peer.
			_, err := syscall.Getpeername(int(fd))
			return err == nil
		default:
			cerr = os.NewSyscallError("connect", e)
			return true
		}
	})
	if !stop() {
		// ctx ended the wait, or is about to move the deadline: the
		// connection is not to be used either way.
		return ctx.Err()
	}
	if werr != nil {
		return werr
	}
	c.f.SetWriteDeadline(time.Time{})
	return cerr
}

// Read reads from the connection; it returns io.EOF once the remote has
// closed its side.
func (c *Conn) Read(b []byte) (int, error) { return c.f.Read(b) }

// Write writes all of b, waiting in the poller while the socket is full,
// unless the write deadline passes first.
func (c *Conn) Write(b []byte) (int, error) { return c.f.Write(b) }

// Close closes the connection; a Read or Write waiting on it returns.
func (c *Conn) Close() error { return c.f.Close() }

// SetReadDeadline bounds the current and later Reads; zero lifts it.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.f.SetReadDeadline(t) }

// SetWriteDeadline bounds the current and later Writes; zero lifts it.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.f.SetWriteDeadline(t) }

// SyscallConn gives raw access to the socket, in the poller.
func (c *Conn) SyscallConn() (syscall.RawConn, error) { return c.f.SyscallConn() }

// RemoteAddr is the address of the connection's other end.
func (c *Conn) RemoteAddr() netip.AddrPort { return c.remote }

// CloseWrite shuts the sending side down; the remote reads io.EOF.
func (c *Conn) CloseWrite() error {
	rc, err := c.f.SyscallConn()
	if err != nil {
		return err
	}
	if cerr := rc.Control(func(fd uintptr) { err = syscall.Shutdown(int(fd), syscall.SHUT_WR) }); cerr != nil {
		return cerr
	}
	return os.NewSyscallError("shutdown", err)
}

// Keep-alive settings, package net's defaults.
const (
	keepAliveIdle     = 15 // seconds
	keepAliveInterval = 15 // seconds
	keepAliveCount    = 9
)

// setConnOpts gives a connection's socket the options package net sets.
func setConnOpts(fd int) error {
	for _, o := range [...]struct{ level, opt, val int }{
		{syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
		{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
		{syscall.IPPROTO_TCP, tcpKeepIdle, keepAliveIdle},
		{syscall.IPPROTO_TCP, tcpKeepIntvl, keepAliveInterval},
		{syscall.IPPROTO_TCP, tcpKeepCnt, keepAliveCount},
	} {
		if err := syscall.SetsockoptInt(fd, o.level, o.opt, o.val); err != nil {
			return os.NewSyscallError("setsockopt", err)
		}
	}
	return nil
}

// sockaddr is the address family and socket address ap is dialed or bound
// at. The zero netip.Addr, an empty host, is IPv4's unspecified address,
// which a dial reaches the local host at, as package net's does.
func sockaddr(ap netip.AddrPort) (int, syscall.Sockaddr) {
	ip := ap.Addr().Unmap()
	if !ip.IsValid() {
		return syscall.AF_INET, &syscall.SockaddrInet4{Port: int(ap.Port())}
	}
	if ip.Is4() {
		return syscall.AF_INET, &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ip.As4()}
	}
	zone, _ := strconv.ParseUint(ip.Zone(), 10, 32) // ParseAddr checked it
	return syscall.AF_INET6, &syscall.SockaddrInet6{Port: int(ap.Port()), Addr: ip.As16(), ZoneId: uint32(zone)}
}

// addrPort is the address of sa, printed as package net prints it: an
// IPv4-mapped IPv6 address as the IPv4 one, a zone as its index.
func addrPort(sa syscall.Sockaddr) netip.AddrPort {
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port))
	case *syscall.SockaddrInet6:
		ip := netip.AddrFrom16(sa.Addr).Unmap()
		if sa.ZoneId != 0 {
			ip = ip.WithZone(strconv.FormatUint(uint64(sa.ZoneId), 10))
		}
		return netip.AddrPortFrom(ip, uint16(sa.Port))
	}
	return netip.AddrPort{}
}
