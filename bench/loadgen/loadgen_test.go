//go:build linux

package loadgen

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
)

var refMix = Mix{Keys: 64, WriteFrac: 0.1, Rate: 4000}

func TestSameSeedSamePlan(t *testing.T) {
	a, b := Plan(7, 20000, refMix), Plan(7, 20000, refMix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two plans from one seed differ")
	}
	if reflect.DeepEqual(a, Plan(8, 20000, refMix)) {
		t.Fatal("a different seed gave the same plan")
	}
}

func TestPlanFollowsTheMix(t *testing.T) {
	plan := Plan(1, 40000, refMix)
	writes := 0
	lastWrite := map[int64]int{} // key → index among the writes
	for i, op := range plan {
		if want := time.Duration(i) * 250 * time.Microsecond; op.Due != want {
			t.Fatalf("op %d due at %v, want %v", i, op.Due, want)
		}
		if op.Key < 0 || op.Key >= 64 {
			t.Fatalf("op %d addresses key %d", i, op.Key)
		}
		if !op.Write {
			continue
		}
		if prev, ok := lastWrite[op.Key]; ok && writes-prev != 64 {
			t.Fatalf("writes %d and %d both go to key %d; want them 64 writes apart", prev, writes, op.Key)
		}
		lastWrite[op.Key] = writes
		writes++
	}
	if writes < 3600 || writes > 4400 {
		t.Fatalf("%d of 40000 operations are writes, want about a tenth", writes)
	}
	for _, op := range Plan(1, 100, Mix{Keys: 2, WriteFrac: 0.5}) {
		if op.Due != 0 {
			t.Fatalf("a closed-loop plan has an operation due at %v", op.Due)
		}
	}
}

// TestJitterKeepsRateAndOrderAndLeavesTheGrid: a jittered arrival stays
// inside its own interval, so the plan is still in order at the same
// rate, and the arrivals cover the interval instead of sitting at its
// start.
func TestJitterKeepsRateAndOrderAndLeavesTheGrid(t *testing.T) {
	mix := refMix
	mix.Jitter = true
	plan := Plan(3, 40000, mix)
	const interval = 250 * time.Microsecond
	var quarters [4]int
	for i, op := range plan {
		lo := time.Duration(i) * interval
		if op.Due < lo || op.Due >= lo+interval {
			t.Fatalf("op %d due at %v, outside its interval [%v, %v)", i, op.Due, lo, lo+interval)
		}
		quarters[(op.Due-lo)*4/interval]++
	}
	for q, n := range quarters {
		if n < 9000 || n > 11000 {
			t.Fatalf("quarter %d of the interval holds %d of 40000 arrivals, want about a quarter", q, n)
		}
	}
	if !reflect.DeepEqual(plan, Plan(3, 40000, mix)) {
		t.Fatal("two jittered plans from one seed differ")
	}
}

// TestOpenLoopKeepsIssuingThroughAStall pins what makes the loop open: a
// fake server stalls on one operation, and the operations due during the
// stall are still called on time and wait for the server, so their
// latency from the scheduled arrival covers the rest of the stall. A
// generator that waited for the stalled operation would call them late
// and, timing from the call, report them as fast.
func TestOpenLoopKeepsIssuingThroughAStall(t *testing.T) {
	const (
		stall     = 60 * time.Millisecond
		stalledOp = 10
	)
	mix := Mix{Keys: 4, WriteFrac: 0, Rate: 1000}
	plan := Plan(1, 50, mix)
	var server sync.Mutex
	stallEnds := plan[stalledOp].Due + stall
	do := func(key int64, write bool, val int64) (int64, int64, error) {
		server.Lock()
		defer server.Unlock()
		if val == ValueOf(stalledOp) {
			time.Sleep(stall)
		}
		return 0, 0, nil
	}
	spans := RunOpen(context.Background(), time.Now(), plan, do)
	if len(spans) != len(plan) {
		t.Fatalf("%d spans for %d operations", len(spans), len(plan))
	}
	for i, sp := range spans {
		if sp.Seq != i || sp.Sched != plan[i].Due {
			t.Fatalf("span %d is op %d scheduled at %v, want op %d at %v", i, sp.Seq, sp.Sched, i, plan[i].Due)
		}
		if late := sp.Call - sp.Sched; late > stall/2 {
			t.Errorf("op %d was called %v late: the generator waited for the stalled server", i, late)
		}
		if i > stalledOp && plan[i].Due < stallEnds-10*time.Millisecond {
			if lat, floor := sp.Ret-sp.Sched, stallEnds-plan[i].Due-5*time.Millisecond; lat < floor {
				t.Errorf("op %d, due %v into a stall ending at %v, reports latency %v < %v", i, plan[i].Due, stallEnds, lat, floor)
			}
		}
	}
}

// TestLatencyCountsFromTheScheduledArrival runs a generator that is
// already behind (the run started 50 ms ago): the spans keep the planned
// arrival as their start, so the lag shows as latency and as lateness
// although every call returns at once.
func TestLatencyCountsFromTheScheduledArrival(t *testing.T) {
	const behind = 50 * time.Millisecond
	plan := Plan(1, 20, Mix{Keys: 4, Rate: 1000})
	do := func(int64, bool, int64) (int64, int64, error) { return 0, 0, nil }
	spans := RunOpen(context.Background(), time.Now().Add(-behind), plan, do)
	for i, sp := range spans {
		if sp.Sched != plan[i].Due {
			t.Fatalf("op %d scheduled at %v, want %v", i, sp.Sched, plan[i].Due)
		}
		if lat := sp.Ret - sp.Sched; lat < behind-plan[i].Due {
			t.Errorf("op %d: latency %v hides the generator's lag of %v", i, lat, behind-plan[i].Due)
		}
		if sp.Ret-sp.Call > 10*time.Millisecond {
			t.Errorf("op %d: the call itself took %v", i, sp.Ret-sp.Call)
		}
	}
}

func TestOpenLoopStopsIssuingWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	plan := Plan(1, 1000, Mix{Keys: 4, Rate: 1000})
	do := func(_ int64, _ bool, val int64) (int64, int64, error) {
		if val == ValueOf(20) {
			cancel()
		}
		return 0, 0, nil
	}
	if spans := RunOpen(ctx, time.Now(), plan, do); len(spans) < 21 || len(spans) > 100 {
		t.Fatalf("%d operations issued; cancelled during the 21st", len(spans))
	}
}

func TestClosedLoopKeepsWorkersBusyAndWraps(t *testing.T) {
	plan := Plan(1, 16, Mix{Keys: 2, WriteFrac: 0.5})
	var mu sync.Mutex
	inFlight, peak := 0, 0
	do := func(_ int64, _ bool, val int64) (int64, int64, error) {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return val, 1, nil
	}
	spans := RunClosed(context.Background(), time.Now(), plan, 4, 50*time.Millisecond, do)
	if peak != 4 {
		t.Fatalf("at most %d operations in flight, want 4", peak)
	}
	if len(spans) <= len(plan) {
		t.Fatalf("%d operations in 50 ms with 4 workers of 1 ms: the plan of %d did not wrap", len(spans), len(plan))
	}
	for i, sp := range spans {
		op := plan[i%len(plan)]
		if sp.Seq != i || sp.Key != op.Key || sp.Write != op.Write || sp.Val != ValueOf(i) || sp.Sched != sp.Call {
			t.Fatalf("span %d = %+v, want op %d of the wrapped plan (%+v)", i, sp, i, op)
		}
	}
}
