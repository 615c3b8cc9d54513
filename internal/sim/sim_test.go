package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestTimerHeapPopsByDeadlineThenCallOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Deadlines[time.Duration]
	var want []Deadline[time.Duration] // what h holds, kept sorted
	pop := func() {
		t.Helper()
		if got := h.Pop(); got.At != want[0].At || got.Seq != want[0].Seq {
			t.Fatalf("pop = (%v, %d), want (%v, %d)", got.At, got.Seq, want[0].At, want[0].Seq)
		}
		want = want[1:]
	}
	for seq := uint64(1); seq <= 500; seq++ {
		e := Deadline[time.Duration]{At: time.Duration(rng.Intn(40)), Seq: seq} // many ties
		h.Push(e)
		want = append(want, e)
		slices.SortStableFunc(want, func(a, b Deadline[time.Duration]) int { return cmp.Compare(a.At, b.At) })
		if rng.Intn(3) == 0 { // pops between pushes, as a turn does
			pop()
		}
	}
	for len(h) > 0 {
		pop()
	}
}

func TestSchedulerRunsInTimestampOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	if err := s.RunUntil(100); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", got, want)
		}
	}
}

func TestSchedulerFIFOForSimultaneousEvents(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	if err := s.RunUntil(5); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events ran out of scheduling order: %v", got)
		}
	}
}

func TestSchedulerClockAdvancesToEventTime(t *testing.T) {
	s := NewScheduler()
	var at Time
	s.At(42, func() { at = s.Now() })
	if err := s.RunUntil(100); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if at != 42 {
		t.Fatalf("Now() inside event = %v, want 42", at)
	}
	if s.Now() != 100 {
		t.Fatalf("Now() after RunUntil = %v, want 100", s.Now())
	}
}

func TestSchedulerPastEventClampsToNow(t *testing.T) {
	s := NewScheduler()
	ran := 0
	s.At(50, func() {
		ran++
		s.At(10, func() {
			ran++
			if s.Now() != 50 {
				t.Errorf("past-scheduled event ran at %v, want 50", s.Now())
			}
		})
	})
	if err := s.RunUntil(60); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if ran != 2 {
		t.Fatalf("executed %d events, want 2", ran)
	}
}

func TestSchedulerAfterUsesCurrentTime(t *testing.T) {
	s := NewScheduler()
	var ranAt Time
	s.At(10, func() {
		s.After(5, func() { ranAt = s.Now() })
	})
	if err := s.RunUntil(20); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if ranAt != 15 {
		t.Fatalf("After(5) from t=10 ran at %v, want 15", ranAt)
	}
}

func TestSchedulerRunUntilLeavesLaterEventsPending(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.At(100, func() { ran = true })
	if err := s.RunUntil(50); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if ran {
		t.Fatal("event at t=100 ran during RunUntil(50)")
	}
	if s.Len() != 1 {
		t.Fatalf("pending events = %d, want 1", s.Len())
	}
}

func TestSchedulerStopNow(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 0; i < 10; i++ {
		s.At(Time(i), func() {
			count++
			if count == 3 {
				s.StopNow()
			}
		})
	}
	err := s.RunUntil(100)
	if err != ErrStopped {
		t.Fatalf("RunUntil error = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("executed %d events before stop, want 3", count)
	}
}

func TestSchedulerDrain(t *testing.T) {
	s := NewScheduler()
	count := 0
	s.At(5, func() {
		count++
		s.After(5, func() { count++ })
	})
	ran, err := s.Drain(0)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if ran != 2 || count != 2 {
		t.Fatalf("Drain ran %d events (count=%d), want 2", ran, count)
	}
}

func TestSchedulerDrainCap(t *testing.T) {
	s := NewScheduler()
	var reschedule func()
	n := 0
	reschedule = func() {
		n++
		s.After(1, reschedule)
	}
	s.After(1, reschedule)
	ran, err := s.Drain(25)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if ran != 25 || n != 25 {
		t.Fatalf("Drain(25) ran %d events (n=%d), want 25", ran, n)
	}
}

func TestSchedulerNilFuncIgnored(t *testing.T) {
	s := NewScheduler()
	s.At(1, nil)
	if s.Len() != 0 {
		t.Fatal("nil event was enqueued")
	}
}

func TestSchedulerRunFor(t *testing.T) {
	s := NewScheduler()
	if err := s.RunFor(10); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if s.Now() != 10 {
		t.Fatalf("Now = %v after RunFor(10), want 10", s.Now())
	}
	if err := s.RunFor(15); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if s.Now() != 25 {
		t.Fatalf("Now = %v after second RunFor(15), want 25", s.Now())
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(10).Add(5)
	if tm != 15 {
		t.Fatalf("Add = %v, want 15", tm)
	}
	if d := Time(15).Sub(10); d != 5 {
		t.Fatalf("Sub = %v, want 5", d)
	}
	if s := Time(7).String(); s != "t=7" {
		t.Fatalf("String = %q", s)
	}
}

// Property: events always execute in non-decreasing timestamp order, no
// matter the insertion order.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(stamps []uint16) bool {
		if len(stamps) == 0 {
			return true
		}
		s := NewScheduler()
		var ran []Time
		for _, st := range stamps {
			at := Time(st)
			s.At(at, func() { ran = append(ran, s.Now()) })
		}
		if err := s.RunUntil(Time(1 << 20)); err != nil {
			return false
		}
		if len(ran) != len(stamps) {
			return false
		}
		for i := 1; i < len(ran); i++ {
			if ran[i] < ran[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seeded RNGs diverged")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("differently seeded RNGs collided %d/100 times", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Fork()
	// Consuming child output must not affect parent's future stream.
	ref := NewRNG(7)
	ref.Uint64() // account for the fork's draw
	for i := 0; i < 100; i++ {
		child.Uint64()
	}
	for i := 0; i < 100; i++ {
		if parent.Uint64() != ref.Uint64() {
			t.Fatal("fork perturbed parent stream")
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGDurationBetween(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		d := r.DurationBetween(3, 9)
		if d < 3 || d > 9 {
			t.Fatalf("DurationBetween(3,9) = %d out of range", d)
		}
	}
	if d := r.DurationBetween(5, 5); d != 5 {
		t.Fatalf("DurationBetween(5,5) = %d, want 5", d)
	}
	if d := r.DurationBetween(9, 3); d != 9 {
		t.Fatalf("DurationBetween(hi<lo) = %d, want lo=9", d)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

// Property: Perm always yields a valid permutation.
func TestRNGPermProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make(map[int]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(99)
	hits := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / trials
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("Bool(0.25) frequency = %v, want ~0.25", frac)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(123)
	const buckets = 10
	counts := make([]int, buckets)
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[r.Intn(buckets)]++
	}
	want := trials / buckets
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("bucket %d count %d deviates >10%% from %d", i, c, want)
		}
	}
}
