package churn

import (
	"testing"
	"testing/quick"

	"churnreg/internal/core"
	"churnreg/internal/sim"
)

// fakeHost spawns/kills against the tracker only.
type fakeHost struct {
	t        *Tracker
	sched    *sim.Scheduler
	joinLag  sim.Duration // time from spawn to activation
	spawned  int
	killed   int
	lastKill core.ProcessID
	killHook func(core.ProcessID) // invoked before the departure is recorded
}

func (h *fakeHost) SpawnProcess() core.ProcessID {
	id := h.t.AllocateID()
	h.t.Entered(id, h.sched.Now())
	h.spawned++
	lag := h.joinLag
	h.sched.After(lag, func() {
		// Mimic a join completing if the process is still present.
		if r := h.t.Record(id); r != nil && r.Departed == NeverDeparted {
			h.t.Activated(id, h.sched.Now())
		}
	})
	return id
}

func (h *fakeHost) KillProcess(id core.ProcessID) {
	if h.killHook != nil {
		h.killHook(id)
	}
	h.t.Departed(id, h.sched.Now())
	h.killed++
	h.lastKill = id
}

func bootstrapped(tr *Tracker, n int) {
	for i := 0; i < n; i++ {
		id := tr.AllocateID()
		tr.Entered(id, 0)
		tr.Activated(id, 0)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{N: 10, Rate: 0.05}, true},
		{"zero churn valid", Config{N: 10, Rate: 0}, true},
		{"zero n", Config{N: 0, Rate: 0.1}, false},
		{"negative rate", Config{N: 10, Rate: -0.1}, false},
		{"rate one", Config{N: 10, Rate: 1.0}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestEnginePreservesPopulation(t *testing.T) {
	sched := sim.NewScheduler()
	tr := NewTracker()
	const n = 50
	bootstrapped(tr, n)
	host := &fakeHost{t: tr, sched: sched, joinLag: 3}
	eng, err := NewEngine(Config{N: n, Rate: 0.04}, sched, sim.NewRNG(1), host, tr)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	if err := sched.RunUntil(500); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.present); got != n {
		t.Fatalf("population = %d, want %d", got, n)
	}
	// 0.04 * 50 = 2 churn events per tick over 500 ticks.
	if host.killed < 900 || host.killed > 1000 {
		t.Fatalf("kills = %d, want ~1000", host.killed)
	}
	if host.spawned != host.killed {
		t.Fatalf("spawned %d != killed %d", host.spawned, host.killed)
	}
}

func TestEngineFractionalAccumulator(t *testing.T) {
	sched := sim.NewScheduler()
	tr := NewTracker()
	const n = 10
	bootstrapped(tr, n)
	host := &fakeHost{t: tr, sched: sched}
	// c·n = 0.25 per tick: one churn event every 4 ticks.
	eng, err := NewEngine(Config{N: n, Rate: 0.025}, sched, sim.NewRNG(1), host, tr)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	if err := sched.RunUntil(400); err != nil {
		t.Fatal(err)
	}
	if host.killed < 98 || host.killed > 102 {
		t.Fatalf("kills = %d, want ~100 (0.25/tick × 400)", host.killed)
	}
}

func TestEngineRateAtOverridesConstantRate(t *testing.T) {
	sched := sim.NewScheduler()
	tr := NewTracker()
	const n = 10
	bootstrapped(tr, n)
	host := &fakeHost{t: tr, sched: sched}
	// Bursty: 0.2 for the first 50 ticks, 0 afterwards.
	eng, err := NewEngine(Config{N: n, Rate: 0.05, RateAt: func(now sim.Time) float64 {
		if now <= 50 {
			return 0.2
		}
		return 0
	}}, sched, sim.NewRNG(4), host, tr)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	if err := sched.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	burstKills := host.killed
	if burstKills < 95 || burstKills > 105 {
		t.Fatalf("burst kills = %d, want ~100 (0.2×10×50)", burstKills)
	}
	if err := sched.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	if host.killed > burstKills+1 {
		t.Fatalf("quiet phase churned: %d -> %d", burstKills, host.killed)
	}
}

func TestEngineZeroRateIsInert(t *testing.T) {
	sched := sim.NewScheduler()
	tr := NewTracker()
	bootstrapped(tr, 5)
	host := &fakeHost{t: tr, sched: sched}
	eng, err := NewEngine(Config{N: 5, Rate: 0}, sched, sim.NewRNG(1), host, tr)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	if err := sched.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if host.killed != 0 || host.spawned != 0 {
		t.Fatal("zero-rate engine churned")
	}
}

func TestEngineStop(t *testing.T) {
	sched := sim.NewScheduler()
	tr := NewTracker()
	bootstrapped(tr, 10)
	host := &fakeHost{t: tr, sched: sched}
	eng, err := NewEngine(Config{N: 10, Rate: 0.1}, sched, sim.NewRNG(1), host, tr)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	if err := sched.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	killedAtStop := host.killed
	eng.Stop()
	if err := sched.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if host.killed != killedAtStop {
		t.Fatalf("engine churned after Stop: %d -> %d", killedAtStop, host.killed)
	}
}

func TestEngineMinLifetimeExemptsYoung(t *testing.T) {
	sched := sim.NewScheduler()
	tr := NewTracker()
	const n = 10
	bootstrapped(tr, n)
	host := &fakeHost{t: tr, sched: sched, joinLag: 2}
	eng, err := NewEngine(Config{N: n, Rate: 0.1, MinLifetime: 50}, sched, sim.NewRNG(3), host, tr)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	if err := sched.RunUntil(300); err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Records() {
		if r.Departed == NeverDeparted {
			continue
		}
		if r.Departed.Sub(r.Entered) < 50 {
			t.Fatalf("process %v removed after only %d ticks (< MinLifetime)", r.ID, r.Departed.Sub(r.Entered))
		}
	}
}

func TestEngineProtectExemptsProcess(t *testing.T) {
	sched := sim.NewScheduler()
	tr := NewTracker()
	bootstrapped(tr, 5)
	host := &fakeHost{t: tr, sched: sched}
	protected := core.ProcessID(1)
	eng, err := NewEngine(Config{N: 5, Rate: 0.2, Protect: func(id core.ProcessID) bool {
		return id == protected
	}}, sched, sim.NewRNG(7), host, tr)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	if err := sched.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	if r := tr.Record(protected); r.Departed != NeverDeparted {
		t.Fatal("protected process was removed")
	}
}

func TestEngineSkipsWhenNoVictim(t *testing.T) {
	sched := sim.NewScheduler()
	tr := NewTracker()
	bootstrapped(tr, 3)
	host := &fakeHost{t: tr, sched: sched}
	eng, err := NewEngine(Config{N: 3, Rate: 0.34, Protect: func(core.ProcessID) bool { return true }},
		sched, sim.NewRNG(1), host, tr)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	if err := sched.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if host.killed != 0 {
		t.Fatal("engine killed a fully protected population")
	}
	if eng.Stats().SkippedRemoves == 0 {
		t.Fatal("skipped removals not counted")
	}
}

func TestRemoveOldestActivePolicy(t *testing.T) {
	sched := sim.NewScheduler()
	tr := NewTracker()
	bootstrapped(tr, 4) // ids 1..4 active at 0
	host := &fakeHost{t: tr, sched: sched, joinLag: 1}
	eng, err := NewEngine(Config{N: 4, Rate: 0.25, Policy: RemoveOldestActive}, sched, sim.NewRNG(1), host, tr)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	if err := sched.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	// First churn event must take one of the time-0 actives.
	if host.lastKill < 1 || host.lastKill > 4 {
		t.Fatalf("oldest-active policy removed %v, want one of p1..p4", host.lastKill)
	}
}

func TestPolicyString(t *testing.T) {
	if RemoveRandom.String() != "random" || RemoveOldestActive.String() != "oldest-active" {
		t.Fatal("policy names wrong")
	}
	if RemovePolicy(9).String() != "RemovePolicy(9)" {
		t.Fatal("unknown policy name wrong")
	}
}

func TestTrackerLifecycle(t *testing.T) {
	tr := NewTracker()
	id := tr.AllocateID()
	tr.Entered(id, 10)
	r := tr.Record(id)
	if r.IsActive() {
		t.Fatal("listening process claims active")
	}
	tr.Activated(id, 15)
	if !r.IsActive() {
		t.Fatal("activated process not active")
	}
	if tr.ActiveCount() != 1 {
		t.Fatalf("ActiveCount = %d, want 1", tr.ActiveCount())
	}
	tr.Departed(id, 20)
	if r.IsActive() || tr.ActiveCount() != 0 || len(tr.present) != 0 {
		t.Fatal("departed process still counted")
	}
	completed, pending, abandoned := tr.JoinStats()
	if completed != 1 || pending != 0 || abandoned != 0 {
		t.Fatalf("JoinStats = %d,%d,%d", completed, pending, abandoned)
	}
}

func TestTrackerDoubleEventsAreIdempotent(t *testing.T) {
	tr := NewTracker()
	id := tr.AllocateID()
	tr.Entered(id, 0)
	tr.Activated(id, 5)
	tr.Activated(id, 9) // ignored
	if tr.Record(id).Activated != 5 {
		t.Fatal("second Activated overwrote first")
	}
	tr.Departed(id, 10)
	tr.Departed(id, 20) // ignored
	if tr.Record(id).Departed != 10 {
		t.Fatal("second Departed overwrote first")
	}
}

func TestActiveAtAndWindow(t *testing.T) {
	tr := NewTracker()
	// p1 active [0, 100); p2 active [10, 30); p3 never activates.
	a := tr.AllocateID()
	tr.Entered(a, 0)
	tr.Activated(a, 0)
	tr.Departed(a, 100)
	b := tr.AllocateID()
	tr.Entered(b, 5)
	tr.Activated(b, 10)
	tr.Departed(b, 30)
	c := tr.AllocateID()
	tr.Entered(c, 8)
	tr.Departed(c, 60)

	// A zero-length window is an instant: |A(τ)|.
	if got := tr.ActiveWindow(20, 0); got != 2 {
		t.Fatalf("ActiveWindow(20,0) = %d, want 2", got)
	}
	if got := tr.ActiveWindow(40, 0); got != 1 {
		t.Fatalf("ActiveWindow(40,0) = %d, want 1", got)
	}
	// Window [20, 35]: p2 leaves at 30, so only p1 covers it.
	if got := tr.ActiveWindow(20, 15); got != 1 {
		t.Fatalf("ActiveWindow(20,15) = %d, want 1", got)
	}
	// Window [15, 25] fully inside both.
	if got := tr.ActiveWindow(15, 10); got != 2 {
		t.Fatalf("ActiveWindow(15,10) = %d, want 2", got)
	}
}

func TestWindowScanMatchesBruteForce(t *testing.T) {
	tr := NewTracker()
	rng := sim.NewRNG(42)
	for i := 0; i < 40; i++ {
		id := tr.AllocateID()
		enter := sim.Time(rng.Int63n(200))
		tr.Entered(id, enter)
		if rng.Bool(0.8) {
			tr.Activated(id, enter.Add(sim.Duration(rng.Int63n(10))))
		}
		if rng.Bool(0.7) {
			tr.Departed(id, enter.Add(sim.Duration(10+rng.Int63n(150))))
		}
	}
	const w = 15
	minFast, maxFast := tr.WindowScan(0, 250, w)
	minSlow, maxSlow := 1<<30, 0
	for tau := sim.Time(0); tau <= 250; tau++ {
		v := tr.ActiveWindow(tau, w)
		if v < minSlow {
			minSlow = v
		}
		if v > maxSlow {
			maxSlow = v
		}
	}
	if minFast != minSlow || maxFast != maxSlow {
		t.Fatalf("WindowScan = (%d,%d), brute force = (%d,%d)", minFast, maxFast, minSlow, maxSlow)
	}
}

// Property: WindowScan agrees with ActiveWindow point queries on random
// lifecycles.
func TestWindowScanProperty(t *testing.T) {
	f := func(seed uint64) bool {
		tr := NewTracker()
		rng := sim.NewRNG(seed)
		n := 5 + rng.Intn(30)
		for i := 0; i < n; i++ {
			id := tr.AllocateID()
			enter := sim.Time(rng.Int63n(100))
			tr.Entered(id, enter)
			if rng.Bool(0.9) {
				tr.Activated(id, enter.Add(sim.Duration(rng.Int63n(5))))
			}
			if rng.Bool(0.6) {
				tr.Departed(id, enter.Add(sim.Duration(5+rng.Int63n(80))))
			}
		}
		w := sim.Duration(rng.Int63n(20))
		minFast, _ := tr.WindowScan(0, 150, w)
		for tau := sim.Time(0); tau <= 150; tau += 7 {
			if tr.ActiveWindow(tau, w) < minFast {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine keeps |present| = n at every tick boundary for any
// (seed, rate).
func TestPopulationInvariantProperty(t *testing.T) {
	f := func(seed uint64, rateRaw uint8) bool {
		rate := float64(rateRaw%50) / 100.0 // 0 .. 0.49
		sched := sim.NewScheduler()
		tr := NewTracker()
		const n = 20
		bootstrapped(tr, n)
		host := &fakeHost{t: tr, sched: sched, joinLag: 2}
		eng, err := NewEngine(Config{N: n, Rate: rate}, sched, sim.NewRNG(seed), host, tr)
		if err != nil {
			return false
		}
		eng.Start()
		for i := 0; i < 50; i++ {
			if err := sched.RunFor(1); err != nil {
				return false
			}
			if len(tr.present) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinLatencies(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < 3; i++ {
		id := tr.AllocateID()
		tr.Entered(id, sim.Time(i*10))
		tr.Activated(id, sim.Time(i*10+5))
	}
	lat := tr.JoinLatencies()
	if len(lat) != 3 {
		t.Fatalf("latencies = %d, want 3", len(lat))
	}
	for _, d := range lat {
		if d != 5 {
			t.Fatalf("latency = %d, want 5", d)
		}
	}
}

func TestAllocateIDNeverReuses(t *testing.T) {
	tr := NewTracker()
	seen := make(map[core.ProcessID]bool)
	for i := 0; i < 1000; i++ {
		id := tr.AllocateID()
		if seen[id] {
			t.Fatalf("ID %v reused", id)
		}
		seen[id] = true
	}
}

func TestChurnBounds(t *testing.T) {
	if got := SyncChurnBound(5); got != 1.0/15 {
		t.Fatalf("SyncChurnBound(5) = %v", got)
	}
	if got := ESyncChurnBound(5, 10); got != 1.0/150 {
		t.Fatalf("ESyncChurnBound(5,10) = %v", got)
	}
}
