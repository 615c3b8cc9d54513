package nettransport

// Tests of the transport's own sockets (internal/tcp): how a connection
// ends, and a dial that cannot complete.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"churnreg/internal/esyncreg"
	"churnreg/internal/tcp"
)

// TestReadEndsQuietlyOnResetOrClose: a connection its remote resets, mid
// frame or between frames, or closes, ends its reader without a decode
// error counted or a line logged. An undecodable frame counts one, and
// the log line names the remote's address.
func TestReadEndsQuietlyOnResetOrClose(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	tr := startCluster(t, 1, esyncreg.Factory(esyncreg.Options{}), 10, func(c *Config) {
		c.Logf = func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
	})[0]
	conns := func() int {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return len(tr.conns)
	}
	// end dials the transport, writes sent, ends the connection with end,
	// and waits for its reader to be gone.
	end := func(name string, sent []byte, end func(*net.TCPConn)) *net.TCPConn {
		c, err := net.Dial("tcp", tr.Addr())
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, name+": the connection accepted", func() bool { return conns() == 1 })
		if _, err := c.Write(sent); err != nil {
			t.Fatal(err)
		}
		end(c.(*net.TCPConn))
		waitFor(t, name+": the reader gone", func() bool { return conns() == 0 })
		return c.(*net.TCPConn)
	}
	reset := func(c *net.TCPConn) {
		time.Sleep(20 * time.Millisecond) // the reader has read what was sent
		c.SetLinger(0)
		c.Close()
	}
	closeIt := func(c *net.TCPConn) { c.Close() }
	end("reset between frames", nil, reset)
	end("reset mid frame", []byte{0, 0}, reset)
	end("closed", nil, closeIt)
	end("closed mid frame", []byte{0, 0, 0, 9, 1}, closeIt)
	mu.Lock()
	quiet := len(logs)
	mu.Unlock()
	if n := tr.Stats().DecodeErrors.Load(); n != 0 || quiet != 0 {
		t.Fatalf("ended connections: %d decode errors and log lines %q; want none", n, logs)
	}

	// A frame of codec version 99 fails to decode.
	c := end("undecodable", []byte{0, 0, 0, 2, 99, 1}, func(*net.TCPConn) {})
	defer c.Close()
	if n := tr.Stats().DecodeErrors.Load(); n != 1 {
		t.Fatalf("an undecodable frame: %d decode errors, want 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logs) != 1 || !strings.Contains(logs[0], "read "+c.LocalAddr().String()+":") {
		t.Fatalf("an undecodable frame from %s logged %q", c.LocalAddr(), logs)
	}
}

// fullListener listens on loopback with a backlog of 0 and fills its
// accept queue, which nobody drains: the kernel drops every further SYN,
// so a dial to the returned address cannot complete.
func fullListener(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
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
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	for range 8 {
		c, err := tcp.Dial(context.Background(), addr, 100*time.Millisecond)
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

// TestCloseEndsADialInProgress: a peer's writer is dialing an address
// whose accept queue is full, a dial that would wait out dialTimeout;
// Close ends it through the transport's context, at once.
func TestCloseEndsADialInProgress(t *testing.T) {
	addr := fullListener(t)
	tr, err := New(Config{ID: 1, ListenAddr: "127.0.0.1:0", N: 2, Delta: 10,
		Factory: esyncreg.Factory(esyncreg.Options{}), Bootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start([]string{addr})
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	tr.Close()
	if took := time.Since(start); took > dialTimeout/4 {
		t.Fatalf("Close took %v with a dial in progress; the dial's own timeout is %v", took, dialTimeout)
	}
}
