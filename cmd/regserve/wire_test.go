package main

// The daemon's operation API is the wire protocol: these tests run
// regserve in-process, as main runs it, and drive it through package
// client — the same door cmd/regbench and the benchmark use.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"churnreg/client"
	"churnreg/internal/core"
)

// daemon is one regserve started by run, with the addresses it bound.
type daemon struct {
	listen, api string
	done        chan error
}

// startDaemon runs regserve with args and waits for its REGSERVE line. The
// daemon leaves through POST /leave when the test ends.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	pr, pw := io.Pipe()
	d := &daemon{done: make(chan error, 1)}
	go func() {
		err := run(append([]string{"-listen", "127.0.0.1:0", "-api", "127.0.0.1:0", "-tick", "1ms"}, args...), pw, io.Discard)
		pw.Close()
		d.done <- err
	}()
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("regserve %v: no REGSERVE line (%v): %v", args, err, <-d.done)
	}
	go io.Copy(io.Discard, pr)
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, "listen="); ok {
			d.listen = v
		} else if v, ok := strings.CutPrefix(f, "api="); ok {
			d.api = v
		}
	}
	if d.listen == "" || d.api == "" {
		t.Fatalf("regserve %v: unparseable line %q", args, line)
	}
	t.Cleanup(func() {
		post(t, "http://"+d.api+"/leave")
		select {
		case err := <-d.done:
			if err != nil {
				t.Errorf("regserve %v: %v", args, err)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("regserve %v did not leave", args)
		}
	})
	return d
}

// startWireCluster starts n bootstrap daemons of protocol sync, each dialing
// those before it, and a client seeded with all of them that has learned
// the whole membership.
func startWireCluster(t *testing.T, n int) *client.Client {
	t.Helper()
	var seeds []string
	for id := 1; id <= n; id++ {
		d := startDaemon(t, "-id", fmt.Sprint(id), "-bootstrap", "-n", fmt.Sprint(n), "-peers", strings.Join(seeds, ","))
		seeds = append(seeds, d.listen)
	}
	return dialMembers(t, client.Config{Seeds: seeds, OpTimeout: 5 * time.Second}, n)
}

// dialMembers dials a client and waits until its view lists n members.
func dialMembers(t *testing.T, cfg client.Config, n int) *client.Client {
	t.Helper()
	c, err := client.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	waitUntil(t, fmt.Sprintf("a view of %d members", n), func() bool { return len(c.Members()) == n })
	return c
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAPIWriteReportsExactSN pins the pipelining contract on the wire:
// the sn in a write's reply is the one THIS write stored, not a snapshot
// that a concurrent write could have advanced.
func TestAPIWriteReportsExactSN(t *testing.T) {
	c := startWireCluster(t, 3)
	for want := int64(1); want <= 3; want++ {
		v, err := c.Write(5, 42)
		if err != nil {
			t.Fatal(err)
		}
		if v.SN != want || v.Val != 42 {
			t.Fatalf("write #%d reported %+v", want, v)
		}
	}
	const writers = 16
	var mu sync.Mutex
	seen := make(map[int64]bool)
	var wg sync.WaitGroup
	for i := int64(0); i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Write(6, 100+i)
			if err != nil {
				t.Errorf("concurrent write %d: %v", i, err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if seen[v.SN] {
				t.Errorf("two concurrent writes reported sn %d", v.SN)
			}
			seen[v.SN] = true
		}()
	}
	wg.Wait()
	for sn := int64(1); sn <= writers; sn++ {
		if !seen[sn] {
			t.Errorf("no write reported sn %d of 1..%d: %v", sn, writers, seen)
		}
	}
}

// TestAPIReadReportsServer: a read's reply names the process whose copy
// produced the value, and reads rotate over the members, each serving the
// value the write stored.
func TestAPIReadReportsServer(t *testing.T) {
	c := startWireCluster(t, 3)
	w, err := c.Write(3, 11)
	if err != nil {
		t.Fatal(err)
	}
	served := make(map[int64]bool)
	for i := 0; i < 30 && len(served) < 3; i++ {
		v, from, err := c.ReadServed(3)
		if err != nil {
			t.Fatal(err)
		}
		if v != w {
			t.Fatalf("read served by %d = %+v, want %+v", from, v, w)
		}
		if from < 1 || from > 3 {
			t.Fatalf("read served by %d, not a member", from)
		}
		served[from] = true
	}
	if len(served) != 3 {
		t.Fatalf("30 reads were served by %v only", served)
	}
}

// TestAPIErrorStatuses pins the two ways a write fails on the wire, and
// above all that they stay DISTINCT: refused (ErrUnroutable) says "not
// applied, retry freely", unacknowledged (ErrUnacknowledged) says "fate
// unknown, do NOT blindly retry". Collapsing them would turn every
// ambiguous write into a retry and break the per-key write discipline.
func TestAPIErrorStatuses(t *testing.T) {
	cases := []struct {
		name  string
		check func(t *testing.T)
	}{
		{"unroutable write", func(t *testing.T) {
			// A client routes only to active processes, so what refuses
			// the write here is backpressure: process 1's operation table
			// (core.MaxInFlightOps) is full of synchronous writes to key 1,
			// each held δ = 3 s, and every attempt at key 0 behind them on
			// the connection is refused BUSY.
			d := startDaemon(t, "-id", "1", "-bootstrap", "-n", "1", "-delta", "3000", "-initial", "7")
			c := dialMembers(t, client.Config{Seeds: []string{d.listen}, MaxAttempts: 3}, 1)
			before := c.Stats().FramesSent
			var fill sync.WaitGroup
			for i := range core.MaxInFlightOps {
				fill.Add(1)
				go func() {
					defer fill.Done()
					_, _ = c.Write(1, int64(i))
				}()
			}
			waitUntil(t, "the table's writes to leave", func() bool { return c.Stats().FramesSent-before >= core.MaxInFlightOps })
			_, err := c.Write(0, 99)
			if !errors.Is(err, client.ErrUnroutable) || errors.Is(err, client.ErrUnacknowledged) {
				t.Fatalf("write to a process with a full table: err = %v, want ErrUnroutable alone", err)
			}
			fill.Wait()
			if v, err := c.Read(0); err != nil || v != (client.Versioned{Val: 7, SN: 0}) {
				t.Fatalf("read = %+v, %v; want the initial value: the refused write was applied", v, err)
			}
		}},
		{"unacknowledged write", func(t *testing.T) {
			// A sync write returns after wait(δ) = 2 s; the client gives
			// up on it long before, with the frame already sent.
			d := startDaemon(t, "-id", "1", "-bootstrap", "-n", "1", "-delta", "2000")
			c := dialMembers(t, client.Config{Seeds: []string{d.listen}, OpTimeout: 100 * time.Millisecond}, 1)
			_, err := c.Write(0, 99)
			if !errors.Is(err, client.ErrUnacknowledged) || errors.Is(err, client.ErrUnroutable) {
				t.Fatalf("write past its deadline: err = %v, want ErrUnacknowledged alone", err)
			}
			var ambiguous *client.AmbiguousWriteError
			if !errors.As(err, &ambiguous) || ambiguous.Key != 0 || ambiguous.Val != 99 || ambiguous.Server != 1 {
				t.Fatalf("err = %#v, want an AmbiguousWriteError naming the write and its server", err)
			}
			// Its fate was unknown to the client, not to the register: the
			// write was applied, so a blind retry would have stored 99 twice.
			waitUntil(t, "the unacknowledged write to show", func() bool {
				v, err := c.Read(0)
				return err == nil && v == client.Versioned{Val: 99, SN: 1}
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.check)
	}
}
