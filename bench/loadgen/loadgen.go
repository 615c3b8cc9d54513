//go:build linux

// Package loadgen is the benchmark's load generator: it turns a seed
// into a fixed plan of operations and drives that plan through a caller's
// operation function, open loop or closed loop, recording one span per
// operation in memory.
//
// Open loop means operation i is due at start + Plan[i].Due whether or
// not earlier operations have returned; each runs on its own goroutine
// and its latency is counted from the instant it was due, so a stalled
// system shows up as latency on the operations queued behind the stall
// instead of silently slowing the arrivals. Closed loop means a fixed
// number of workers each issue their next operation when the previous one
// returns; it measures capacity, not latency under a given load.
package loadgen

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Mix describes the operations of one workload.
type Mix struct {
	// Keys is the number of registers the operations address (0..Keys-1).
	Keys int
	// WriteFrac is the probability that an operation is a write.
	WriteFrac float64
	// Rate is the open-loop arrival rate in operations per second; 0 makes
	// the plan a closed-loop one (every Due is 0).
	Rate float64
	// Jitter moves every open-loop arrival to a seeded instant within its
	// own interval of 1/Rate instead of the interval's start: the rate and
	// the order stay, the arrivals leave the grid. On the grid every
	// arrival has a fixed phase against a timer the server set at an
	// earlier one, and a latency that contains such a timer takes a few
	// discrete values whose median jumps from one to the next.
	Jitter bool
}

// Op is one planned operation.
type Op struct {
	// Due is when the operation is to be issued, from the start of the
	// run (open loop only).
	Due time.Duration
	// Key is the register addressed.
	Key int64
	// Write tells a write from a read.
	Write bool
}

// Plan generates n operations from seed: the same seed and mix give the
// same plan. Reads pick their key uniformly. Writes walk a seeded
// permutation of the keys, so two writes to one key are Keys writes
// apart: at most one write per key is in flight unless the system falls
// that far behind or the mix has fewer keys than the loop has workers,
// which is the paper's one-writer-per-register discipline kept across a
// change of shard primary.
func Plan(seed int64, n int, m Mix) []Op {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(m.Keys)
	ops := make([]Op, n)
	writes := 0
	for i := range ops {
		op := &ops[i]
		if m.Rate > 0 {
			at := float64(i)
			if m.Jitter {
				at += rng.Float64()
			}
			op.Due = time.Duration(at * float64(time.Second) / m.Rate)
		}
		if rng.Float64() < m.WriteFrac {
			op.Write = true
			op.Key = int64(perm[writes%len(perm)])
			writes++
		} else {
			op.Key = int64(rng.Intn(m.Keys))
		}
	}
	return ops
}

// Do performs one operation and returns the value read or stored with
// its sequence number. val is the value a write is to store.
type Do func(key int64, write bool, val int64) (rval, sn int64, err error)

// Span records one operation as the generator saw it.
type Span struct {
	// Seq numbers the operations of a run from 0; a write stores the
	// value ValueOf(Seq).
	Seq int
	// Key and Write repeat the planned operation.
	Key   int64
	Write bool
	// Sched is when the operation was due, Call when the generator called
	// Do and Ret when Do returned, all from the start of the run. On a
	// closed loop Sched equals Call.
	Sched, Call, Ret time.Duration
	// Val and SN are what Do returned; Err is its error.
	Val, SN int64
	Err     error
}

// ValueOf is the value the write with sequence number seq stores. Values
// are unique within a run and distinct from the small values a set-up
// phase may have written.
func ValueOf(seq int) int64 { return int64(seq) + 1<<32 }

// RunOpen issues plan open loop, timed from start, and returns one span
// per operation issued, in plan order, once every operation has returned.
// It stops issuing when ctx is cancelled.
func RunOpen(ctx context.Context, start time.Time, plan []Op, do Do) []Span {
	// The dispatcher sleeps in nanosleep on a thread of its own whose
	// timer slack is cut from the default 50µs to the minimum. Go's own
	// sleep is no use here: an idle runtime rounds a sub-millisecond sleep
	// up to a millisecond, and the slack alone is a fifth of the interval
	// at 4000 operations a second.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack(1)
	defer setTimerSlack(0) // 0 restores the thread's default

	spans := make([]Span, len(plan))
	var wg sync.WaitGroup
	issued := 0
	for issued < len(plan) && ctx.Err() == nil {
		now := time.Since(start)
		for issued < len(plan) && plan[issued].Due <= now {
			op := plan[issued]
			sp := &spans[issued]
			*sp = Span{Seq: issued, Key: op.Key, Write: op.Write, Sched: op.Due}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sp.Call = time.Since(start)
				sp.Val, sp.SN, sp.Err = do(sp.Key, sp.Write, ValueOf(sp.Seq))
				sp.Ret = time.Since(start)
			}()
			issued++
		}
		if issued < len(plan) {
			waitUntil(start, plan[issued].Due)
		}
	}
	wg.Wait()
	return spans[:issued]
}

// waitUntil returns when the run is at least `due` old.
func waitUntil(start time.Time, due time.Duration) {
	if d := due - time.Since(start); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // woken early by a signal: the caller's loop waits again
	}
}

// setTimerSlack sets the calling thread's timer slack in nanoseconds.
func setTimerSlack(ns uintptr) {
	const prSetTimerslack = 29 // PR_SET_TIMERSLACK, linux/prctl.h
	// A failure leaves the default slack: operations are issued later,
	// which the lateness the spans record shows.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, ns, 0)
}

// RunClosed drives plan closed loop with the given number of workers
// until the run is `until` old or ctx is cancelled, wrapping around the
// plan if it runs out, and returns the spans in issue order.
func RunClosed(ctx context.Context, start time.Time, plan []Op, workers int, until time.Duration, do Do) []Span {
	var next atomic.Int64
	perWorker := make([][]Span, workers)
	var wg sync.WaitGroup
	for w := range perWorker {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				call := time.Since(start)
				if call >= until {
					return
				}
				seq := int(next.Add(1) - 1)
				op := plan[seq%len(plan)]
				sp := Span{Seq: seq, Key: op.Key, Write: op.Write, Sched: call, Call: call}
				sp.Val, sp.SN, sp.Err = do(op.Key, op.Write, ValueOf(seq))
				sp.Ret = time.Since(start)
				perWorker[w] = append(perWorker[w], sp)
			}
		}()
	}
	wg.Wait()
	var spans []Span
	for _, s := range perWorker {
		spans = append(spans, s...)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })
	return spans
}
