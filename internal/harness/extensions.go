package harness

// Extension experiments (E11, E12): the paper's §7 open directions made
// executable — upgrading the regular register to an atomic one, and
// probing the "greatest sustainable churn" question with bursty churn.

import (
	"fmt"

	"churnreg/internal/atomicreg"
	"churnreg/internal/churn"
	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/esyncreg"
	"churnreg/internal/metrics"
	"churnreg/internal/netsim"
	"churnreg/internal/sim"
	"churnreg/internal/spec"
	"churnreg/internal/syncreg"
)

// AtomicUpgrade contrasts the regular quorum register with its write-back
// upgrade on a schedule engineered to produce a new/old inversion, and
// reports the upgrade's message cost.
func AtomicUpgrade(seed uint64) *metrics.Table {
	t := metrics.NewTable("E11 — atomic upgrade: read write-back closes the inversion gap",
		"register", "read A", "read B (after A)", "regular?", "inversions", "msgs total")

	type outcome struct {
		a, b       core.SeqNum
		regularOK  bool
		inversions int
		msgs       uint64
	}
	run := func(factory core.NodeFactory) outcome {
		history, sys := scriptedInversionSchedule(seed, factory)
		reads := []*spec.Op{}
		for _, op := range history.Ops() {
			if op.Kind == spec.OpRead && op.Completed {
				reads = append(reads, op)
			}
		}
		return outcome{
			a:          reads[0].Value.SN,
			b:          reads[1].Value.SN,
			regularOK:  len(history.CheckRegular()) == 0,
			inversions: len(history.FindInversions()),
			msgs:       sys.Network().Stats().Sent,
		}
	}

	reg := run(esyncreg.Factory(esyncreg.Options{}))
	atom := run(atomicreg.Factory(esyncreg.Options{}))
	t.AddRow("regular (§5)",
		fmt.Sprintf("sn=%d", reg.a), fmt.Sprintf("sn=%d", reg.b),
		fmt.Sprintf("%v", reg.regularOK), metrics.D(int64(reg.inversions)), metrics.D(int64(reg.msgs)))
	t.AddRow("atomic (write-back)",
		fmt.Sprintf("sn=%d", atom.a), fmt.Sprintf("sn=%d", atom.b),
		fmt.Sprintf("%v", atom.regularOK), metrics.D(int64(atom.inversions)), metrics.D(int64(atom.msgs)))
	t.AddNote("schedule: write propagates fast to reader A only; A then B read sequentially during the write")
	t.AddNote("both runs are regular; only the write-back variant is inversion-free (atomic), at ~1 extra broadcast round per read")
	return t
}

// scriptedInversionSchedule builds the shared E11 execution: p1 writes
// while its WRITE reaches only reader A (p2) quickly; A reads, then B (p3)
// reads, with reply routes arranged so B's quorum is stale-first.
func scriptedInversionSchedule(seed uint64, factory core.NodeFactory) (*spec.History, *dynsys.System) {
	const (
		delta = 5
		slow  = 200
	)
	model := netsim.ScriptedDelayModel{
		Base: netsim.FixedDelayModel{D: 1},
		Overrides: map[netsim.Route]sim.Duration{
			{From: 1, Kind: core.KindWrite}:        slow,
			{From: 1, To: 2, Kind: core.KindWrite}: 1,
			{From: 3, To: 2, Kind: core.KindReply}: slow,
			{From: 5, To: 2, Kind: core.KindReply}: slow,
			{From: 1, To: 3, Kind: core.KindReply}: slow,
			{From: 2, To: 3, Kind: core.KindReply}: slow,
		},
	}
	sys, err := dynsys.New(dynsys.Config{
		N:       5,
		Delta:   delta,
		Model:   model,
		Factory: factory,
		Seed:    seed,
		Initial: core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		panic(err)
	}
	history := spec.NewHistory(core.VersionedValue{Val: 0, SN: 0})
	writer := sys.Node(1).(core.Ops)
	wOp := history.BeginWrite(1, sys.Now())
	if err := writer.Write(core.DefaultRegister, 1, func(v core.VersionedValue, _ error) {
		history.CompleteWrite(wOp, sys.Now(), v)
	}); err != nil {
		panic(err)
	}
	_ = sys.RunFor(6)
	read := func(id core.ProcessID) {
		op := history.BeginRead(id, sys.Now())
		r := sys.Node(id).(core.Ops)
		if err := r.Read(core.DefaultRegister, func(v core.VersionedValue, _ error) {
			history.CompleteRead(op, sys.Now(), v)
		}); err != nil {
			panic(err)
		}
		for i := 0; i < 4*slow && !op.Completed; i++ {
			_ = sys.RunFor(1)
		}
	}
	read(2)
	_ = sys.RunFor(2)
	read(3)
	_ = sys.RunFor(2 * slow)
	return history, sys
}

// BurstyChurn probes the paper's open question ("is it possible to
// characterize the greatest value of c?") empirically: two runs with the
// SAME mean churn, one constant and one bursty. The constant run sits
// safely below 1/(3δ); the bursty run exceeds the bound within individual
// 3δ windows and loses the register even though its mean is identical —
// evidence that the right characterization is per-window, not mean rate.
func BurstyChurn(seed uint64) *metrics.Table {
	const (
		n     = 30
		delta = 5
		dur   = 3000
	)
	bound := SyncChurnBound(delta)
	// Bursty profile: 4×bound for 5 ticks, quiet for 33 — mean ≈
	// 4×bound×5/38 ≈ 0.53×bound, same as the constant run. Each burst
	// refreshes 4·(1/3δ)·n·5 = 20/15·n > n processes: a full population
	// turnover inside a single 3δ window.
	const burstLen, period = 5, 38
	burstRate := 4 * bound
	meanRate := burstRate * burstLen / period

	t := metrics.NewTable("E12 — bursty vs constant churn at equal mean rate",
		"profile", "mean c", "peak c", "min |A(τ,τ+3δ)|", "⊥ joins", "regular violations")

	type result struct {
		minWindow int
		bottoms   int
		viols     int
	}
	runProfile := func(rateAt func(sim.Time) float64) result {
		res, err := Run(Trial{
			N: n, Delta: delta, Churn: meanRate, ChurnAt: rateAt,
			Policy:   churn.RemoveOldestActive, // worst case, as in E3/E4
			Duration: dur, Seed: seed,
			Factory:  syncreg.Factory(syncreg.Options{}),
			Workload: WorkloadMix(4*delta, delta, 2, true),
		})
		if err != nil {
			panic(err)
		}
		bottoms := 0
		for _, id := range res.Sys.ActiveIDs() {
			if res.Sys.Node(id).Snapshot().IsBottom() {
				bottoms++
			}
		}
		return result{minWindow: res.MinActiveWindow, bottoms: bottoms, viols: len(res.Violations)}
	}

	constant := runProfile(nil) // Trial.Churn == meanRate applies
	bursty := runProfile(func(now sim.Time) float64 {
		if int64(now)%period < burstLen {
			return burstRate
		}
		return 0
	})
	t.AddRow("constant", metrics.F(meanRate, 4), metrics.F(meanRate, 4),
		metrics.D(int64(constant.minWindow)), metrics.D(int64(constant.bottoms)), metrics.D(int64(constant.viols)))
	t.AddRow("bursty (4/(3δ) for 5 of 38 ticks)", metrics.F(meanRate, 4), metrics.F(burstRate, 4),
		metrics.D(int64(bursty.minWindow)), metrics.D(int64(bursty.bottoms)), metrics.D(int64(bursty.viols)))
	t.AddNote("n=%d, δ=%d, bound 1/(3δ)=%.4f; both profiles refresh the same number of processes over the run", n, delta, bound)
	t.AddNote("the paper's open question: the sustainable-churn characterization must be per 3δ window, not mean rate")
	return t
}
