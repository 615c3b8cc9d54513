package main

// Tests of what answering an admin request costs, and of the bytes of the
// JSON answers, which the daemon writes by hand.

import (
	"bytes"
	"encoding/json"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// memConn is an in-memory net.Conn: reads come from req, writes are kept
// in out, deadlines are ignored. It allocates nothing itself once out has
// grown, so a test counts the responder's own allocations.
type memConn struct {
	req strings.Reader
	out []byte
}

func (c *memConn) Read(p []byte) (int, error)       { return c.req.Read(p) }
func (c *memConn) Write(p []byte) (int, error)      { c.out = append(c.out, p...); return len(p), nil }
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return nil }
func (c *memConn) RemoteAddr() net.Addr             { return nil }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// perRequest reports the heap allocations and bytes of one call of f,
// averaged over n calls after one that warms the pools up; allocations
// are rounded down, as testing.AllocsPerRun rounds them.
func perRequest(n int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(n)), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestAdminAllocs pins what answering one admin request allocates, from
// its head to its answer's last byte: a health probe, its HEAD form and a
// 404, each 3 allocations and 152-160 B. What is left is the method's and
// the target's strings and the parsed URL (144 B); the head reader and
// the body and answer buffers are pooled, no header is kept, and
// /health's JSON is written into the body's spare room. The byte
// ceilings leave one size class of room. (Before the pools, GET /health
// took 34 allocations and 6,120 B here.)
func TestAdminAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	s := newAPI(&serverConfig{id: 1, protocol: "sync"}, newFakeBackend(), make(chan struct{}, 1))
	for _, tc := range []struct {
		name, req, status string
		allocs, bytes     float64
	}{
		{"GET /health", "GET /health HTTP/1.1\r\nHost: x\r\nUser-Agent: probe\r\nAccept: */*\r\n\r\n", "HTTP/1.1 200 OK\r\n", 3, 168},
		{"HEAD /health", "HEAD /health HTTP/1.1\r\nHost: x\r\n\r\n", "HTTP/1.1 200 OK\r\n", 3, 168},
		{"GET /nope", "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n", "HTTP/1.1 404 Not Found\r\n", 3, 168},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &memConn{}
			allocs, bytes := perRequest(500, func() {
				c.req.Reset(tc.req)
				c.out = c.out[:0]
				s.serveConn(c)
			})
			if !strings.HasPrefix(string(c.out), tc.status) {
				t.Fatalf("answered %q, want %q first", c.out, tc.status)
			}
			if allocs > tc.allocs || bytes > tc.bytes {
				t.Fatalf("%s allocates %.1f times and %.0f B per request, want at most %v and %v B", tc.name, allocs, bytes, tc.allocs, tc.bytes)
			}
		})
	}
}

// TestJSONBodies: /health (unsharded and sharded) and /leave answer
// exactly what encoding/json's Encoder writes for the map of their
// fields — keys sorted, a newline after the object.
func TestJSONBodies(t *testing.T) {
	encode := func(v any) string {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, sharded := range []bool{false, true} {
		b := newFakeBackend()
		b.sharded = sharded
		srv := newTestAPI(t, b)
		want := map[string]any{"id": 1, "protocol": "sync", "active": true, "peers": 2, "addr": "fake:0"}
		if sharded {
			want["shards"], want["shards_owned"], want["replication"] = 16, 6, 3
		}
		if status, body := get(t, srv.URL+"/health"); status != 200 || body != encode(want) {
			t.Errorf("sharded %v: /health answered %d %q, want %q", sharded, status, body, encode(want))
		}
	}
	srv := newTestAPI(t, newFakeBackend())
	want := encode(map[string]any{"ok": true, "leaving": true})
	if status, body := post(t, srv.URL+"/leave"); status != 200 || body != want {
		t.Errorf("/leave answered %d %q, want %q", status, body, want)
	}
}

// TestAppendJSONString: a string goes out as encoding/json writes it,
// whatever bytes it holds.
func TestAppendJSONString(t *testing.T) {
	for _, s := range []string{
		"", "127.0.0.1:7001", "[::1]:7001", "esync",
		`quote " and back\slash`, "tab\tnew\nline\rcr\bbs\fff\x00nul\x1fus\x7fdel",
		"<a href='x'>&amp;</a>", "café \u2028 \u2029 \ufffd \U0001F600",
		"bad \xff utf-8 \xe2\x82", "\xed\xa0\x80 surrogate",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("%q: wrote %s, want %s", s, got, want)
		}
	}
}
