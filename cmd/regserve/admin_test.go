package main

// Tests of the admin responder's edges, as Go's net/http client (or, for
// what that client will not send, a raw connection whose answer it
// parses) sees them.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// rawRequest writes raw to the server at addr and parses its answer.
func rawRequest(t *testing.T, addr, raw string) *http.Response {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatalf("%q: %v", raw, err)
	}
	return resp
}

// TestAdminRefusesMalformedRequests: a request line that is not
// "METHOD target HTTP/1.x", or a header line without a colon, is a 400.
func TestAdminRefusesMalformedRequests(t *testing.T) {
	srv := newTestAPI(t, newFakeBackend())
	for _, raw := range []string{
		"GARBAGE\r\n\r\n",
		"GET /health\r\n\r\n",
		"GET /health HTTP/2.0\r\n\r\n",
		"GET health HTTP/1.1\r\n\r\n",
		"G(T /health HTTP/1.1\r\n\r\n",
		"GET /health HTTP/1.1\r\nno colon here\r\n\r\n",
	} {
		if resp := rawRequest(t, srv.addr, raw); resp.StatusCode != http.StatusBadRequest || !resp.Close {
			t.Errorf("%q: status %d, close %v; want 400 and a close", raw, resp.StatusCode, resp.Close)
		}
	}
}

// TestAdminNotFoundAndWrongMethod: an unknown path is a 404; a known one
// under another method is a 405 naming the methods it answers in Allow,
// and a GET route answers HEAD with its headers alone.
func TestAdminNotFoundAndWrongMethod(t *testing.T) {
	srv := newTestAPI(t, newFakeBackend())
	if status, body := get(t, srv.URL+"/nope"); status != http.StatusNotFound || body != "404 page not found\n" {
		t.Fatalf("GET /nope: %d %q", status, body)
	}
	for _, tc := range []struct{ method, path, allow string }{
		{"POST", "/health", "GET, HEAD"},
		{"DELETE", "/metrics", "GET, HEAD"},
		{"GET", "/leave", "POST"},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != tc.allow {
			t.Errorf("%s %s: status %d, Allow %q; want 405 and %q", tc.method, tc.path, resp.StatusCode, resp.Header.Get("Allow"), tc.allow)
		}
	}
	resp, err := http.Head(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.ContentLength <= 0 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("HEAD /health: status %d, length %d, type %q", resp.StatusCode, resp.ContentLength, resp.Header.Get("Content-Type"))
	}
}

// TestAdminRefusesOversizedHead: a head over maxHead is a 431, which the
// client reads rather than a reset, and a head just under it is served.
func TestAdminRefusesOversizedHead(t *testing.T) {
	srv := newTestAPI(t, newFakeBackend())
	for _, tc := range []struct {
		pad  int
		want int
	}{{maxHead + 1024, http.StatusRequestHeaderFieldsTooLarge}, {maxHead - 1024, http.StatusOK}} {
		req, _ := http.NewRequest("GET", srv.URL+"/health", nil)
		req.Header.Set("X-Pad", strings.Repeat("p", tc.pad))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("header of %d bytes: %v", tc.pad, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("header of %d bytes: status %d, want %d", tc.pad, resp.StatusCode, tc.want)
		}
	}
}

// TestAdminDropsStalledClient: a client that stops mid-head is closed
// on at the read deadline, unanswered.
func TestAdminDropsStalledClient(t *testing.T) {
	s := newAPI(&serverConfig{id: 1, protocol: "sync"}, newFakeBackend(), make(chan struct{}, 1))
	s.timeout = 200 * time.Millisecond
	srv := startAPI(t, s)
	c, err := net.Dial("tcp", srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	io.WriteString(c, "GET /health HTTP/1.1\r\nHost: x\r\n")
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := c.Read(make([]byte, 1))
	if n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("stalled client read %d bytes, err %v; want the server's close", n, err)
	}
	if took := time.Since(start); took < s.timeout {
		t.Fatalf("dropped after %v, before the %v deadline", took, s.timeout)
	}
}

// TestAdminBoundsConnections: at most maxConns connections are answered
// at once. With every slot held by a stalled client, a request waits in
// the backlog until the read deadline frees one, and is then served.
func TestAdminBoundsConnections(t *testing.T) {
	s := newAPI(&serverConfig{id: 1, protocol: "sync"}, newFakeBackend(), make(chan struct{}, 1))
	s.timeout = 300 * time.Millisecond
	srv := startAPI(t, s)
	start := time.Now()
	for range maxConns {
		c, err := net.Dial("tcp", srv.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	if status, body := get(t, srv.URL+"/health"); status != 200 {
		t.Fatalf("health behind %d stalled clients: status %d: %s", maxConns, status, body)
	}
	if took := time.Since(start); took < s.timeout/2 {
		t.Fatalf("served after %v behind %d stalled clients: the bound did not hold", took, maxConns)
	}
}

// TestAdminDrainsRequestBody: a POST that carries a body, which the
// daemon ignores, still gets its answer and then a clean close: the body
// is read off the connection first, where closing over unread bytes
// would send the client a reset.
func TestAdminDrainsRequestBody(t *testing.T) {
	leavec := make(chan struct{}, 1)
	srv := newTestAPIWith(t, newFakeBackend(), leavec)
	body := strings.Repeat("b", maxHead-512) // more than one buffered read
	for _, tc := range []struct {
		path string
		want int
	}{{"/leave", http.StatusOK}, {"/health", http.StatusMethodNotAllowed}} {
		c, err := net.Dial("tcp", srv.addr)
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		fmt.Fprintf(c, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", tc.path, len(body), body)
		got, err := io.ReadAll(c)
		c.Close()
		if err != nil {
			t.Fatalf("POST %s with a body: after %q, %v", tc.path, got, err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(got)), nil)
		if err != nil || resp.StatusCode != tc.want {
			t.Fatalf("POST %s with a body: %q (%v), want status %d", tc.path, got, err, tc.want)
		}
	}
	select {
	case <-leavec:
	default:
		t.Fatal("/leave with a body did not signal the daemon to leave")
	}
}

// TestAPIPprofServesProfiles: with -pprof, a CPU profile and the heap
// profile come back gzip-framed, as `go tool pprof` reads them.
func TestAPIPprofServesProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("takes a one-second CPU profile")
	}
	srv := startAPI(t, newAPI(&serverConfig{id: 1, protocol: "sync", pprof: true}, newFakeBackend(), make(chan struct{}, 1)))
	for _, path := range []string{"/debug/pprof/profile?seconds=1", "/debug/pprof/heap"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !bytes.HasPrefix(body, []byte{0x1f, 0x8b}) || resp.Header.Get("Content-Type") != "application/octet-stream" {
			t.Fatalf("%s: status %d, type %q, %d bytes starting % x; want a gzip-framed profile",
				path, resp.StatusCode, resp.Header.Get("Content-Type"), len(body), body[:min(len(body), 4)])
		}
	}
	if status, body := get(t, srv.URL+"/debug/pprof/goroutine?debug=1"); status != 200 || !strings.HasPrefix(body, "goroutine profile:") {
		t.Fatalf("goroutine?debug=1: status %d: %.80s", status, body)
	}
}

// TestBinaryLinksNoHTTPStack: regserve's admin API is its own responder,
// so the binary links neither net/http nor the TLS and X.509 stack that
// comes with it, about half of the image every daemon maps — nor
// net/textproto, whose header reader it does without, nor encoding/json,
// since /health and /leave write their JSON by hand. Its sockets are
// internal/tcp's, so it links no package net either, and with it no cgo
// resolver: runtime/cgo is absent, the binary is static, and no daemon
// maps libc or ld.so. net/netip and net/url are pure Go and allowed.
func TestBinaryLinksNoHTTPStack(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	out, err := exec.Command(gobin, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		switch dep {
		case "net/http", "crypto/tls", "crypto/x509", "net/textproto", "encoding/json", "net", "runtime/cgo":
			t.Errorf("cmd/regserve depends on %s", dep)
		}
	}
}

// FuzzAdminRequest asserts the head parser never panics, fails only as
// a malformed head or an ended read, and reads the same request however
// the bytes arrive.
func FuzzAdminRequest(f *testing.F) {
	for _, seed := range []string{
		"GET /health HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /leave HTTP/1.0\r\nContent-Length: 3\r\n\r\nabc",
		"GET /debug/pprof/profile?seconds=1 HTTP/1.1\r\nUser-Agent: Go-http-client/1.1\r\n\r\n",
		"GET http://h:1/metrics?a=%zz&b HTTP/1.1\r\n\r\n",
		"GET /health HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"GET /health HTTP/1.1\r\n folded: header\r\n\r\n",
		"GET  /health HTTP/1.1\r\n\r\n",
		"\r\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		whole, err := readHead(bufio.NewReader(io.LimitReader(bytes.NewReader(b), maxHead)))
		if err != nil && !errors.Is(err, errBadRequest) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%q: error %v is neither a malformed head nor an ended read", b, err)
		}
		if err == nil && (!isToken(whole.method) || !bytes.HasPrefix(b, []byte(whole.method+" "))) {
			t.Fatalf("%q: read method %q", b, whole.method)
		}
		bytewise, err2 := readHead(bufio.NewReader(iotest.OneByteReader(io.LimitReader(bytes.NewReader(b), maxHead))))
		if (err == nil) != (err2 == nil) || whole.method != bytewise.method || whole.path != bytewise.path ||
			whole.body != bytewise.body || whole.query.Encode() != bytewise.query.Encode() {
			t.Fatalf("%q: read whole %+v (%v), byte by byte %+v (%v)", b, whole, err, bytewise, err2)
		}
	})
}
