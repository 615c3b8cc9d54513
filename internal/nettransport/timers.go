package nettransport

// The protocol's timers: one deadline heap the monitor owns, one wake
// source (clock_linux.go, clock_other.go) and one goroutine that brings the
// due callbacks to the node.

import (
	"time"

	"churnreg/internal/core"
	"churnreg/internal/sim"
)

// timer is one pending After callback: due at at, counted from
// Transport.start; seq breaks ties in call order.
type timer struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// timerHeap is a binary min-heap on (at, seq), a typed slice so that no
// entry is boxed.
type timerHeap []timer

func (h timerHeap) less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}

func (h *timerHeap) push(e timer) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if !s.less(i, up) {
			break
		}
		s[i], s[up] = s[up], s[i]
		i = up
	}
}

func (h *timerHeap) pop() timer {
	s := *h
	top, n := s[0], len(s)-1
	s[0], s[n] = s[n], timer{}
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.less(c+1, c) {
			c++
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

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
	if t.deadlines.push(timer{at: at, seq: t.timerSeq, fn: fn}); t.deadlines[0].seq != t.timerSeq {
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
		for !t.halted && len(t.deadlines) > 0 && t.deadlines[0].at <= now {
			e := t.deadlines.pop()
			late := now - e.at
			t.stats.TimerFires.Add(1)
			t.stats.TimerLateNanos.Add(uint64(late))
			if late > overrun {
				t.stats.TimerOverruns.Add(1)
			}
			t.run(core.NoProcess, nil, e.fn)
		}
		if !t.halted && len(t.deadlines) > 0 {
			t.clock.arm(t.deadlines[0].at - time.Since(t.start))
		}
		t.exit()
	}
}
