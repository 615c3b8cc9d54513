package nettransport

// Tests for the timers and their clock: a callback never runs early,
// runs once, in deadline order and in call order on a tie; none starts
// after Close; callbacks due together are one turn; arming and firing
// allocate nothing; and on Linux a deadline is met well inside a
// millisecond.

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/sim"
)

// TestAfterNeverEarlyOnceInOrder arms 500 callbacks at random delays, ten
// per turn with pauses between turns, so that later calls land both
// before the deadline the clock is armed for and on the same delay as
// earlier ones. Every callback must run once, no earlier than its delay
// after the call, and never before a callback called earlier with a delay
// no longer than its own.
func TestAfterNeverEarlyOnceInOrder(t *testing.T) {
	const calls, perTurn = 500, 10
	const tick = 100 * time.Microsecond
	tr, p := newProbeTransport(t, nil, func(c *Config) { c.Tick = tick })
	rng := rand.New(rand.NewSource(7))
	delays := make([]sim.Duration, calls)
	early := make([]time.Duration, calls) // > 0: ran that much too soon
	fires := make([]int, calls)
	var order []int // callback indices as they ran
	var done sync.WaitGroup
	done.Add(calls)
	for i := 0; i < calls; i += perTurn {
		tr.Invoke(func(core.Node) {
			for j := i; j < i+perTurn; j++ {
				delays[j] = sim.Duration(rng.Intn(21))
				want, call := time.Duration(delays[j])*tick, time.Now()
				p.env.After(delays[j], func() {
					early[j] = want - time.Since(call)
					fires[j]++
					order = append(order, j)
					done.Done()
				})
			}
		})
		time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
	}
	done.Wait()
	time.Sleep(10 * time.Millisecond) // room for a second firing, were there one
	tr.Invoke(func(core.Node) {
		for j := range calls {
			if fires[j] != 1 || early[j] > 0 {
				t.Errorf("callback %d (delay %d): ran %d times, %v early", j, delays[j], fires[j], early[j])
			}
		}
		ran := make([]int, calls) // ran[j]: position of callback j in order
		for pos, j := range order {
			ran[j] = pos
		}
		for i := range calls {
			for j := i + 1; j < calls; j++ {
				if delays[i] <= delays[j] && ran[i] > ran[j] {
					t.Errorf("callback %d (delay %d) ran after %d (delay %d), called later", i, delays[i], j, delays[j])
				}
			}
		}
	})
	if fired := tr.Stats().TimerFires.Load(); fired != calls {
		t.Fatalf("TimerFires = %d, want %d", fired, calls)
	}
}

// TestNoCallbackStartsAfterClose keeps a chain of short timers going,
// each callback arming the next, and closes the transport under it: no
// callback may start once Close has returned, and the clock's goroutine
// must be gone.
func TestNoCallbackStartsAfterClose(t *testing.T) {
	checkLeaks := grabGoroutineBaseline(t)
	tr, p := newProbeTransport(t, nil, func(c *Config) { c.Tick = 50 * time.Microsecond })
	var closed, lateStarts, fired atomic.Int64
	var next func()
	next = func() {
		if closed.Load() != 0 {
			lateStarts.Add(1)
		}
		fired.Add(1)
		p.env.After(1, next)
		p.env.After(2, func() {})
	}
	tr.Invoke(func(core.Node) { p.env.After(1, next) })
	waitFor(t, "the chain to run", func() bool { return fired.Load() > 20 })
	tr.Close()
	closed.Store(1)
	time.Sleep(5 * time.Millisecond)
	if n := lateStarts.Load(); n != 0 {
		t.Fatalf("%d callbacks started after Close returned", n)
	}
	checkLeaks()
}

// TestDueTimersShareOneTurnAndOneWrite arms three callbacks on one
// deadline, each sending to the same peer: the clock's wake runs all three
// in one turn, and the link is written once.
func TestDueTimersShareOneTurnAndOneWrite(t *testing.T) {
	tr, p := newProbeTransport(t, nil, nil)
	conn := &scriptConn{failAfter: -1}
	attachPeer(tr, 2, conn)
	st := tr.Stats()
	tr.Invoke(func(core.Node) {
		for i := range 3 {
			p.env.After(5, func() { p.env.Send(2, label(i)) })
		}
		// The three deadlines are nanoseconds apart; make them one.
		tr.deadlines[1].At, tr.deadlines[2].At = tr.deadlines[0].At, tr.deadlines[0].At
	})
	turns := st.LoopTurns.Load()
	waitFor(t, "the three frames", func() bool { return len(scanAll(t, conn.bytesWritten())) == 3 })
	for i, f := range scanAll(t, conn.bytesWritten()) {
		if !reflect.DeepEqual(f.Msg, label(i)) {
			t.Fatalf("frame %d = %+v, want %+v (deadline ties run in call order)", i, f.Msg, label(i))
		}
	}
	if n, w, fired := st.LoopTurns.Load()-turns, st.FlushWrites.Load(), st.TimerFires.Load(); n != 1 || w != 1 || fired != 3 {
		t.Fatalf("turns = %d, writes = %d, fires = %d; want 1, 1, 3", n, w, fired)
	}
}

// TestAfterMeetsItsDeadlineInsideAMillisecond is the precision the clock
// is for. On an idle process a Go timer fires when the runtime's
// epoll_wait times out, in whole milliseconds: a wake-up part-way through
// the wait (here the test's own, at a random moment, as a server's other
// work would) leaves the runtime a time-out rounded to the millisecond,
// and the deadline is missed by a good part of one (median ≈ 0.3 ms on a
// 2-core x86 VM). The timerfd wakes the netpoller when the deadline passes.
func TestAfterMeetsItsDeadlineInsideAMillisecond(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the timerfd wake source is Linux's")
	}
	if raceEnabled {
		t.Skip("the race detector slows every wake-up")
	}
	const runs, d = 20, 20
	tr, p := newProbeTransport(t, nil, func(c *Config) { c.Tick = time.Millisecond })
	rng := rand.New(rand.NewSource(1))
	late := make(chan time.Duration, 1)
	lateness := make([]time.Duration, runs)
	for i := range lateness {
		tr.Invoke(func(core.Node) {
			call := time.Now()
			p.env.After(d, func() { late <- time.Since(call) - d*time.Millisecond })
		})
		time.Sleep(time.Duration(10_000+rng.Intn(9_000)) * time.Microsecond)
		lateness[i] = <-late
	}
	slices.Sort(lateness)
	median := lateness[runs/2]
	if median >= 250*time.Microsecond {
		t.Fatalf("median lateness %v, want < 250µs (sorted: %v)", median, lateness)
	}
	t.Logf("lateness: median %v, max %v", median, lateness[runs-1])
}

// TestAfterZeroAllocs is the timer path's allocation ceiling: arming a
// callback (the closure is the caller's) and the clock's wake that runs
// it allocate nothing in steady state.
func TestAfterZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	tr, p := newProbeTransport(t, nil, func(c *Config) { c.Tick = time.Microsecond })
	tr.goid = nil // reads the stack: test-only, and not free
	fired := make(chan struct{}, 1)
	fn := func() { fired <- struct{}{} }
	arm := func() { p.env.After(1, fn) }
	if allocs := testing.AllocsPerRun(1000, func() { tr.do(arm); <-fired }); allocs != 0 {
		t.Fatalf("After and its firing: %v allocs/op, want 0", allocs)
	}
	if fires := tr.Stats().TimerFires.Load(); fires != 1001 {
		t.Fatalf("TimerFires = %d, want 1001: the runs did not fire what they armed", fires)
	}
}
