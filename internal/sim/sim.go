// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate every experiment in this repository runs on:
// a virtual clock whose domain is the set of non-negative integers (matching
// the paper's time model), a binary-heap event scheduler with stable FIFO
// ordering for simultaneous events, and deterministic timers.
//
// All randomness used by simulations comes from the seeded generators in
// rng.go so that every run is exactly reproducible.
package sim

import (
	"errors"
	"fmt"
)

// Time is a point in virtual time. The paper's time model is the set of
// positive integers; one Time unit corresponds to one paper time unit.
type Time int64

// Duration is a span of virtual time.
type Duration int64

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String renders the time as a plain integer tick count.
func (t Time) String() string { return fmt.Sprintf("t=%d", int64(t)) }

// ErrStopped is returned by Run variants when StopNow interrupted the run.
var ErrStopped = errors.New("sim: stopped")

// Deadline is one pending callback in a Deadlines heap: due at At; Seq
// breaks ties between callbacks due at the same instant, in call order.
type Deadline[K ~int64] struct {
	At  K
	Seq uint64
	Fn  func()
}

// Deadlines is a binary min-heap on (At, Seq), a typed slice so that no
// entry is boxed. Seq is unique per heap, so pop order is a total order.
// The simulator's Scheduler and the TCP transport's timers both use it.
type Deadlines[K ~int64] []Deadline[K]

func (h Deadlines[K]) less(i, j int) bool {
	return h[i].At < h[j].At || h[i].At == h[j].At && h[i].Seq < h[j].Seq
}

// Push adds e to the heap.
func (h *Deadlines[K]) Push(e Deadline[K]) {
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

// Pop removes and returns the earliest entry; the heap must not be empty.
func (h *Deadlines[K]) Pop() Deadline[K] {
	s := *h
	top, n := s[0], len(s)-1
	s[0], s[n] = s[n], Deadline[K]{}
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

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; protocol code driven by it therefore needs no locks,
// which is what makes simulated runs deterministic.
type Scheduler struct {
	now     Time
	queue   Deadlines[Time]
	seq     uint64
	stopped bool
}

// NewScheduler returns a scheduler positioned at time 0 with an empty queue.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len returns the number of pending events.
func (s *Scheduler) Len() int { return len(s.queue) }

// At schedules fn to run at time t. Scheduling in the past (before Now) is
// clamped to Now: the event runs as soon as the scheduler resumes, which is
// the only sensible semantics for a causal simulation.
func (s *Scheduler) At(t Time, fn func()) {
	if fn == nil {
		return
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.queue.Push(Deadline[Time]{At: t, Seq: s.seq, Fn: fn})
}

// After schedules fn to run d time units from now. Negative durations are
// clamped to zero.
func (s *Scheduler) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now.Add(d), fn)
}

// StopNow aborts the current Run call after the in-flight event completes.
func (s *Scheduler) StopNow() { s.stopped = true }

// Step executes the single next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := s.queue.Pop()
	s.now = ev.At
	ev.Fn()
	return true
}

// RunUntil executes events in timestamp order until the queue would advance
// the clock beyond deadline, leaving later events pending. The clock is left
// at deadline (or at the last executed event if the queue drained first).
// It returns ErrStopped if StopNow was called during execution.
func (s *Scheduler) RunUntil(deadline Time) error {
	s.stopped = false
	for len(s.queue) > 0 && s.queue[0].At <= deadline {
		s.Step()
		if s.stopped {
			return ErrStopped
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
	return nil
}

// RunFor executes events for d time units from the current instant.
func (s *Scheduler) RunFor(d Duration) error {
	return s.RunUntil(s.now.Add(d))
}

// Drain executes events until the queue is empty or maxEvents have run.
// It returns the number of events executed and ErrStopped if interrupted.
// A maxEvents of 0 means no cap.
func (s *Scheduler) Drain(maxEvents uint64) (uint64, error) {
	s.stopped = false
	var ran uint64
	for len(s.queue) > 0 {
		if maxEvents > 0 && ran >= maxEvents {
			return ran, nil
		}
		s.Step()
		ran++
		if s.stopped {
			return ran, ErrStopped
		}
	}
	return ran, nil
}
