package verdict

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/spec"
)

const key = 3

// sequential builds a clean history of one key longer than several
// windows: a write, then reads of its value, and again.
func sequential(writes, readsPerWrite int) []Op {
	var ops []Op
	t := time.Duration(0)
	step := func() (time.Duration, time.Duration) {
		t += 10 * time.Microsecond
		return t, t + 5*time.Microsecond
	}
	for w := 1; w <= writes; w++ {
		call, ret := step()
		ops = append(ops, Op{Key: key, Write: true, Call: call, Ret: ret, Val: int64(1000 + w), SN: int64(w)})
		for r := 0; r < readsPerWrite; r++ {
			call, ret := step()
			ops = append(ops, Op{Key: key, Call: call, Ret: ret, Val: int64(1000 + w), SN: int64(w)})
		}
	}
	return ops
}

func TestCleanHistoryPasses(t *testing.T) {
	ops := sequential(40, 100) // 4000 reads: eight windows
	if err := Check(ops, nil, true); err != nil {
		t.Fatalf("clean history judged: %v", err)
	}
}

func TestStaleReadIsFlaggedInALaterWindow(t *testing.T) {
	ops := sequential(40, 100)
	// The last read returns the very first write's value.
	last := &ops[len(ops)-1]
	last.Val, last.SN = 1001, 1
	err := Check(ops, nil, false)
	if err == nil || !strings.Contains(err.Error(), notRegular) {
		t.Fatalf("stale read not flagged: %v", err)
	}
}

func TestInversionAcrossWindowsIsFlagged(t *testing.T) {
	// One long write overlaps every read, so both its value and its
	// predecessor's are regular throughout; a read that returns the old
	// value long after another returned the new one is an inversion only.
	ops := []Op{{Key: key, Write: true, Call: 1, Ret: time.Hour, Val: 7, SN: 1}}
	t0 := time.Duration(10)
	for i := 0; i < 3*window; i++ {
		sn := int64(0)
		if i == 5 {
			sn = 1 // an early read sees the new value
		}
		ops = append(ops, Op{Key: key, Call: t0, Ret: t0 + 5, Val: 7 * sn, SN: sn})
		t0 += 10
	}
	if err := Check(ops, nil, false); err != nil {
		t.Fatalf("a regular history was judged irregular: %v", err)
	}
	err := Check(ops, nil, true)
	if err == nil || !strings.Contains(err.Error(), newOldInver) {
		t.Fatalf("inversion not flagged: %v", err)
	}
	// Every read after the sixth inverts against it, in every window.
	if want := "1530 violations"; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("got %q..., want %s", err.Error()[:40], want)
	}
}

func TestOverlappingWritesOfTwoValuesBreakTheDiscipline(t *testing.T) {
	ops := []Op{
		{Key: key, Write: true, Call: 10, Ret: 30, Val: 1, SN: 1},
		{Key: key, Write: true, Call: 20, Ret: 40, Val: 2, SN: 1}, // pipelined, same sn
	}
	err := Check(ops, nil, false)
	if err == nil || !strings.Contains(err.Error(), badWrites) {
		t.Fatalf("shared sequence number not flagged: %v", err)
	}
}

func TestAmbiguousWriteIsAllowedOnceObserved(t *testing.T) {
	ops := []Op{
		{Key: key, Write: true, Call: 10, Ret: 20, Val: 1, SN: 1},
		{Key: key, Write: true, Call: 30, Ret: 40, Val: 2, Outcome: Ambiguous},
		{Key: key, Call: 50, Ret: 60, Val: 2, SN: 2}, // it was applied after all
		{Key: key, Write: true, Call: 70, Ret: 80, Val: 9, Outcome: NotApplied},
		{Key: key, Call: 90, Ret: 95, Val: 2, SN: 2},
	}
	if err := Check(ops, nil, true); err != nil {
		t.Fatalf("observed ambiguous write judged: %v", err)
	}
	// Without the ambiguous write nothing explains sequence number 2.
	if err := Check(append(ops[:1:1], ops[2:]...), nil, true); err == nil {
		t.Fatal("a read of a value nobody wrote passed")
	}
}

func TestInitialValuesAreTheBaseline(t *testing.T) {
	ops := []Op{{Key: key, Call: 10, Ret: 20, Val: 4, SN: 1}}
	if err := Check(ops, nil, false); err == nil {
		t.Fatal("a read of sn 1 passed with nothing written")
	}
	initial := map[int64]core.VersionedValue{key: {Val: 4, SN: 1}}
	if err := Check(ops, initial, false); err != nil {
		t.Fatalf("a read of the set-up value judged: %v", err)
	}
}

// TestWindowsAgreeWithTheWholeHistory compares the windowed verdict with
// internal/spec run on the whole history, on random concurrent histories
// in which reads return plausible but sometimes wrong values.
func TestWindowsAgreeWithTheWholeHistory(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ops []Op
		// One writer, sometimes pipelining: sequence numbers in call order.
		var writes []Op
		t0 := time.Duration(100)
		for sn := int64(1); sn <= 300; sn++ {
			call := t0 + time.Duration(rng.Intn(40))
			ret := call + time.Duration(5+rng.Intn(60))
			writes = append(writes, Op{Key: key, Write: true, Call: call, Ret: ret, Val: 100 + sn, SN: sn})
			t0 = call + time.Duration(1+rng.Intn(50))
		}
		ops = append(ops, writes...)
		horizon := int(t0)
		for i := 0; i < 4*window; i++ {
			call := time.Duration(50 + rng.Intn(horizon))
			ret := call + time.Duration(1+rng.Intn(80))
			// The newest write started by the time the read returns, give
			// or take a few: mostly right, sometimes stale or inverted.
			newest := int64(0)
			for _, w := range writes {
				if w.Call <= ret {
					newest = w.SN
				}
			}
			sn := max(newest-int64(rng.Intn(4)), 0)
			val := int64(0)
			if sn > 0 {
				val = 100 + sn
			}
			ops = append(ops, Op{Key: key, Call: call, Ret: ret, Val: val, SN: sn})
		}

		whole := spec.NewHistory(core.VersionedValue{})
		for _, op := range ops {
			record(whole, key, op)
		}
		wantStale := map[time.Duration]bool{}
		for _, v := range whole.CheckRegular() {
			wantStale[time.Duration(v.Read.Start-1)] = true
		}
		wantInverted := map[time.Duration]bool{}
		for _, iv := range whole.FindInversions() {
			wantInverted[time.Duration(iv.Second.Start-1)] = true
		}

		gotStale := map[time.Duration]bool{}
		gotInverted := map[time.Duration]bool{}
		for _, p := range checkKey(key, append([]Op(nil), ops...), core.VersionedValue{}, true) {
			switch p.kind {
			case notRegular:
				gotStale[p.read.Call] = true
			case newOldInver:
				gotInverted[p.read.Call] = true
			default:
				t.Fatalf("seed %d: %s: %s", seed, p.kind, p.detail)
			}
		}
		if len(wantStale) == 0 || len(wantInverted) == 0 {
			t.Fatalf("seed %d: the random history has %d stale and %d inverted reads; the test needs both", seed, len(wantStale), len(wantInverted))
		}
		compare(t, seed, "stale", gotStale, wantStale)
		compare(t, seed, "inverted", gotInverted, wantInverted)
	}
}

// compare checks that two sets of reads, identified by call time (which
// the generator above may repeat, hence sets), are the same.
func compare(t *testing.T, seed int64, what string, got, want map[time.Duration]bool) {
	t.Helper()
	for call := range want {
		if !got[call] {
			t.Errorf("seed %d: %s read called at %d missed by the windowed check", seed, what, call)
		}
	}
	for call := range got {
		if !want[call] {
			t.Errorf("seed %d: read called at %d flagged %s by the windowed check only", seed, call, what)
		}
	}
}
