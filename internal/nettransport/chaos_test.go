package nettransport

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/esyncreg"
	"churnreg/internal/syncreg"
)

// grabGoroutineBaseline snapshots the goroutine count before a test and
// returns a check that fails if the count has not returned to (near) the
// baseline after the test's transports close. Timer goroutines and the
// runtime's own background workers come and go, so the check polls with a
// deadline instead of comparing one instant.
func grabGoroutineBaseline(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		var n int
		for time.Now().Before(deadline) {
			n = runtime.NumGoroutine()
			if n <= base+2 {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		stacks := string(buf)
		leaked := 0
		for _, frame := range strings.Split(stacks, "\n\n") {
			if strings.Contains(frame, "nettransport") {
				leaked++
				t.Logf("leaked goroutine:\n%s", frame)
			}
		}
		t.Fatalf("goroutine leak: %d goroutines, baseline %d (%d in nettransport frames)", n, base, leaked)
	}
}

// TestChaosConnectionDropsESync injects connection drops and forced
// reconnects while quorum reads and writes are in flight: every operation
// must either complete with a legal value or time out cleanly, the system
// must recover full service once the chaos stops, and no goroutine may
// outlive the transports.
func TestChaosConnectionDropsESync(t *testing.T) {
	checkLeaks := grabGoroutineBaseline(t)
	duration := 2 * time.Second
	if testing.Short() {
		duration = 400 * time.Millisecond
	}

	ts := startCluster(t, 3, esyncreg.Factory(esyncreg.Options{}), 5)
	for _, tr := range ts {
		waitPeerCount(t, tr, 2)
	}

	var (
		stop     atomic.Bool
		mu       sync.Mutex
		written  = make(map[core.RegisterID][]core.Value) // values ever written per key
		timeouts atomic.Uint64
		oks      atomic.Uint64
	)
	opTO := 1500 * time.Millisecond

	var wg sync.WaitGroup
	// Writer: fresh key per operation so a read or write wedged by a lost
	// quorum round (the paper assumes reliable channels; the transport's
	// links are fair-lossy under chaos) can only ever wedge its own key.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		next := core.RegisterID(1)
		for !stop.Load() {
			k := next
			next++
			v := core.Value(rng.Int63n(1 << 30))
			mu.Lock()
			written[k] = append(written[k], v)
			mu.Unlock()
			_, err := ts[0].WriteKey(k, v, opTO)
			switch {
			case err == nil:
				oks.Add(1)
			case errors.Is(err, ErrTimeout):
				timeouts.Add(1)
			default:
				t.Errorf("write %v: unexpected error: %v", k, err)
				return
			}
		}
	}()
	// Readers: read recent keys on random nodes; a returned value must be
	// one actually written to that key (or the implicit initial 0).
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				mu.Lock()
				hi := core.RegisterID(len(written))
				mu.Unlock()
				if hi == 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				k := 1 + core.RegisterID(rng.Int63n(int64(hi)))
				v, err := ts[rng.Intn(len(ts))].ReadKey(k, opTO)
				switch {
				case err == nil:
					oks.Add(1)
					mu.Lock()
					legal := v.Val == 0 // implicit initial
					for _, w := range written[k] {
						if v.Val == w {
							legal = true
							break
						}
					}
					mu.Unlock()
					if !legal {
						t.Errorf("read %v returned %v, never written to that key", k, v)
						return
					}
				case errors.Is(err, ErrTimeout), errors.Is(err, core.ErrOpInProgress):
					timeouts.Add(1)
				default:
					t.Errorf("read %v: unexpected error: %v", k, err)
					return
				}
			}
		}(int64(100 + r))
	}
	// Chaos: force drops on random transports; every drop kills the TCP
	// connections mid-frame and the writers redial.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for !stop.Load() {
			ts[rng.Intn(len(ts))].DropConnections()
			time.Sleep(time.Duration(20+rng.Intn(40)) * time.Millisecond)
		}
	}()

	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Recovery: with the chaos stopped, full service must return — a
	// write and a cross-node read on a fresh key succeed within one
	// generous timeout.
	k := core.RegisterID(1 << 20)
	if _, err := ts[0].WriteKey(k, 777, 10*time.Second); err != nil {
		t.Fatalf("post-chaos write did not recover: %v", err)
	}
	v, err := ts[2].ReadKey(k, 10*time.Second)
	if err != nil {
		t.Fatalf("post-chaos read did not recover: %v", err)
	}
	if v.Val != 777 {
		t.Fatalf("post-chaos read %v, want 777", v)
	}
	t.Logf("chaos summary: %d ops ok, %d timed out, %d reconnects, %d queue drops",
		oks.Load(), timeouts.Load(), ts[0].Stats().Reconnects.Load(), ts[0].Stats().QueueDrops.Load())
	if oks.Load() == 0 {
		t.Fatal("no operation completed during chaos")
	}

	for _, tr := range ts {
		tr.Close()
	}
	checkLeaks()
}

// TestChaosDropsSync exercises the synchronous protocol's fire-and-forget
// writes under connection drops: writes always return after δ, reads stay
// local, and shutdown leaks nothing.
func TestChaosDropsSync(t *testing.T) {
	checkLeaks := grabGoroutineBaseline(t)
	duration := time.Second
	if testing.Short() {
		duration = 300 * time.Millisecond
	}
	ts := startCluster(t, 3, syncreg.Factory(syncreg.Options{}), 20)
	for _, tr := range ts {
		waitPeerCount(t, tr, 2)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(4))
		for !stop.Load() {
			ts[rng.Intn(len(ts))].DropConnections()
			time.Sleep(time.Duration(10+rng.Intn(30)) * time.Millisecond)
		}
	}()
	var v core.Value
	for end := time.Now().Add(duration); time.Now().Before(end); {
		v++
		if _, err := ts[0].WriteKey(3, v, 5*time.Second); err != nil {
			t.Fatalf("sync write %d: %v", v, err)
		}
		if _, err := ts[0].ReadKey(3, 5*time.Second); err != nil {
			t.Fatalf("sync local read: %v", err)
		}
	}
	stop.Store(true)
	wg.Wait()
	for _, tr := range ts {
		tr.Close()
	}
	checkLeaks()
}

// TestCloseIsIdempotentAndLeakFree closes transports twice, one of them
// mid-handshake, and checks nothing is left running.
func TestCloseIsIdempotentAndLeakFree(t *testing.T) {
	checkLeaks := grabGoroutineBaseline(t)
	tr, err := New(Config{
		ID: 1, ListenAddr: "127.0.0.1:0", N: 3, Delta: 5,
		Factory: esyncreg.Factory(esyncreg.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seed it with a black-hole address: the dialer must not survive Close.
	tr.Start([]string{"127.0.0.1:1"})
	time.Sleep(20 * time.Millisecond)
	tr.Close()
	tr.Close()
	checkLeaks()
}
