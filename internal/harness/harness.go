// Package harness defines the repository's experiments: one per figure,
// lemma, or theorem of the paper (All lists them, each titled with what it
// reproduces). Each experiment builds a simulated dynamic system, drives a
// workload, checks the recorded history against the register
// specification, and renders a metrics.Table — the repository's equivalent
// of regenerating the paper's figures. cmd/experiments prints them;
// bench_test.go wraps them as benchmarks.
package harness

import (
	"fmt"

	"churnreg/internal/churn"
	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/metrics"
	"churnreg/internal/netsim"
	"churnreg/internal/sim"
	"churnreg/internal/spec"
	"churnreg/internal/workload"
)

// Trial is one simulated run.
type Trial struct {
	// N is the constant system size.
	N int
	// Delta is δ (used by the synchronous protocol and as the default
	// network bound).
	Delta sim.Duration
	// Churn is the churn rate c.
	Churn float64
	// ChurnAt makes churn time-varying (requires Churn > 0 to enable the
	// engine; the per-tick rate then comes from this function).
	ChurnAt func(now sim.Time) float64
	// Policy selects churn victims (default random).
	Policy churn.RemovePolicy
	// MinLifetime exempts young processes from churn (0 = none).
	MinLifetime sim.Duration
	// Model overrides the network model (default SynchronousModel{Delta}).
	Model netsim.DelayModel
	// Factory builds protocol nodes.
	Factory core.NodeFactory
	// Duration is the simulated run length.
	Duration sim.Duration
	// Seed makes the run reproducible.
	Seed uint64
	// Workload drives operations.
	Workload workload.Config
	// UnprotectedWriter exposes the designated writer to churn (default:
	// protected, matching the paper's "the invoker does not leave").
	UnprotectedWriter bool
	// Configure, when non-nil, runs on the assembled system before the
	// workload starts (tracing, fault injection).
	Configure func(*dynsys.System)
}

// TrialResult aggregates everything the experiments report on.
type TrialResult struct {
	History    *spec.History
	Violations []spec.Violation
	Inversions []spec.Inversion
	SafeViols  []spec.Violation
	// MonotoneViols are per-process session violations (reads going
	// backwards) — an implementation invariant both protocols provide.
	MonotoneViols []spec.Violation
	Counts        spec.Counts

	JoinCompleted, JoinPending, JoinAbandoned int
	JoinLatency                               metrics.Sample
	ReadLatency                               metrics.Sample
	WriteLatency                              metrics.Sample

	// MinActive / MaxActive are over instants in [warmup, end].
	MinActive, MaxActive int
	// MinActiveWindow is min over τ of |A(τ, τ+3δ)| — Lemma 2's quantity.
	MinActiveWindow int

	Net      netsim.Stats
	Workload workload.Stats
	Sys      *dynsys.System
}

// Run executes the trial to completion and checks the history.
func Run(tr Trial) (*TrialResult, error) {
	if tr.Model == nil {
		tr.Model = netsim.SynchronousModel{Delta: tr.Delta}
	}
	guard := &workload.Guard{}
	var protect func(core.ProcessID) bool
	if !tr.UnprotectedWriter {
		protect = guard.Protects
	}
	initial := core.VersionedValue{Val: 0, SN: 0}
	sys, err := dynsys.New(dynsys.Config{
		N:           tr.N,
		Delta:       tr.Delta,
		Model:       tr.Model,
		Factory:     tr.Factory,
		Seed:        tr.Seed,
		ChurnRate:   tr.Churn,
		ChurnRateAt: tr.ChurnAt,
		ChurnPolicy: tr.Policy,
		MinLifetime: tr.MinLifetime,
		Protect:     protect,
		Initial:     initial,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	if tr.Configure != nil {
		tr.Configure(sys)
	}
	history := spec.NewHistory(initial)
	runner := workload.New(sys, history, guard, tr.Workload)
	runner.Start()
	if err := sys.RunFor(tr.Duration); err != nil {
		return nil, fmt.Errorf("harness: run: %w", err)
	}
	return Collect(sys, history, runner, tr)
}

// Collect assembles a TrialResult from a finished system (exposed so
// scenario scripts that drive systems manually can reuse the reporting).
func Collect(sys *dynsys.System, history *spec.History, runner *workload.Runner, tr Trial) (*TrialResult, error) {
	res := &TrialResult{
		History:       history,
		Violations:    history.CheckRegular(),
		Inversions:    history.FindInversions(),
		SafeViols:     history.CheckSafe(),
		MonotoneViols: history.CheckMonotoneReads(),
		Counts:        history.Counts(),
		Net:           sys.Network().Stats(),
		Sys:           sys,
	}
	if runner != nil {
		res.Workload = runner.Stats()
	}
	if err := history.ValidateWrites(); err != nil {
		return nil, fmt.Errorf("harness: workload broke the write discipline: %w", err)
	}
	res.JoinCompleted, res.JoinPending, res.JoinAbandoned = sys.Tracker().JoinStats()
	for _, d := range sys.Tracker().JoinLatencies() {
		res.JoinLatency.AddInt(int64(d))
	}
	for _, op := range history.Ops() {
		if !op.Completed {
			continue
		}
		switch op.Kind {
		case spec.OpRead:
			res.ReadLatency.AddInt(int64(op.End - op.Start))
		case spec.OpWrite:
			res.WriteLatency.AddInt(int64(op.End - op.Start))
		}
	}
	// Active-set extrema after a warmup of 3δ (the initial joins settle).
	warmup := sim.Time(3 * tr.Delta)
	end := sim.Time(tr.Duration)
	if end > warmup {
		res.MinActive, res.MaxActive = sys.Tracker().WindowScan(warmup, end, 0)
		if end > warmup+sim.Time(3*tr.Delta) {
			res.MinActiveWindow, _ = sys.Tracker().WindowScan(warmup, end-sim.Time(3*tr.Delta), 3*tr.Delta)
		}
	}
	return res, nil
}

// SyncChurnBound returns the synchronous protocol's churn bound 1/(3δ).
func SyncChurnBound(delta sim.Duration) float64 { return 1.0 / (3.0 * float64(delta)) }

// ESyncChurnBound returns the eventually synchronous protocol's churn
// bound 1/(3δn).
func ESyncChurnBound(delta sim.Duration, n int) float64 {
	return 1.0 / (3.0 * float64(delta) * float64(n))
}

// Experiment couples an id/title with a table generator, for cmd/experiments.
type Experiment struct {
	ID    string
	Title string
	Run   func(seed uint64) []*metrics.Table
}

// All returns every experiment, E1 first.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Figure 3: why the join pre-wait is required", Run: one(Fig3WhyWait)},
		{ID: "E2", Title: "Intro figure: new/old inversion (regular ≠ atomic)", Run: one(NewOldInversion)},
		{ID: "E3", Title: "Lemma 2: active-set lower bound under churn", Run: one(Lemma2ActiveSet)},
		{ID: "E4", Title: "Theorem 1: synchronous safety/liveness across the churn bound", Run: one(Theorem1SafetySweep)},
		{ID: "E5", Title: "Theorem 2: impossibility in a fully asynchronous system", Run: one(Theorem2Impossibility)},
		{ID: "E6", Title: "Theorems 3-4: eventually synchronous protocol across GST", Run: one(ESyncGSTSweep)},
		{ID: "E7", Title: "Churn bound scaling: 1/(3δ) vs 1/(3δn)", Run: one(ChurnBoundScaling)},
		{ID: "E8", Title: "Protocol comparison: latency and message cost", Run: one(ProtocolComparison)},
		{ID: "E9", Title: "DL_PREV ablation: the deferred-reply rescue chain", Run: one(DLPrevAblation)},
		{ID: "E10", Title: "Latency scaling with churn and δ", Run: one(LatencyScaling)},
		{ID: "E11", Title: "Extension: atomic upgrade via read write-back", Run: one(AtomicUpgrade)},
		{ID: "E12", Title: "Extension: bursty churn at constant mean (the open c question)", Run: one(BurstyChurn)},
	}
}

func one(f func(seed uint64) *metrics.Table) func(uint64) []*metrics.Table {
	return func(seed uint64) []*metrics.Table { return []*metrics.Table{f(seed)} }
}
