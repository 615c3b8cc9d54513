package nettransport

// The protocol's timers: one deadline heap the monitor owns, one wake
// source (clock_linux.go, clock_other.go) and one goroutine that brings the
// due callbacks to the node.

import (
	"time"

	"churnreg/internal/core"
	"churnreg/internal/sim"
)

// After implements core.Env: fn runs inside the monitor no earlier than d
// ticks from now — in deadline order, in call order on a tie, and together
// with every other callback due by then, in one turn. The node calls it
// from its handlers, inside the monitor, which owns the heap; once the
// transport has halted it queues nothing. The wake source is re-armed only
// when fn's deadline is the earliest.
func (t *Transport) After(d sim.Duration, fn func()) {
	if t.halted {
		return
	}
	t.timerSeq++
	at := time.Since(t.start) + time.Duration(d)*t.cfg.Tick
	if t.deadlines.Push(sim.Deadline[time.Duration]{At: at, Seq: t.timerSeq, Fn: fn}); t.deadlines[0].Seq != t.timerSeq {
		return
	}
	if !t.ticking {
		t.ticking = true
		t.wg.Add(1)
		go t.tick()
	}
	t.clock.arm(at - time.Since(t.start))
}

// tick is the clock's goroutine, a producer like a connection's reader:
// per expiry it enters the monitor, runs every callback due by then as the
// tasks of one turn, re-arms the clock for the next deadline and leaves.
// Each deadline is checked against the clock again, so a wake that finds
// nothing due only re-arms. It ends when Close closes the clock.
func (t *Transport) tick() {
	defer t.wg.Done()
	overrun := time.Duration(t.cfg.Delta) * t.cfg.Tick
	for t.clock.wait() && t.enter() {
		now := time.Since(t.start)
		for !t.halted && len(t.deadlines) > 0 && t.deadlines[0].At <= now {
			e := t.deadlines.Pop()
			late := now - e.At
			t.stats.TimerFires.Add(1)
			t.stats.TimerLateNanos.Add(uint64(late))
			if late > overrun {
				t.stats.TimerOverruns.Add(1)
			}
			t.run(core.NoProcess, nil, e.Fn)
		}
		if !t.halted && len(t.deadlines) > 0 {
			t.clock.arm(t.deadlines[0].At - time.Since(t.start))
		}
		t.exit()
	}
}
