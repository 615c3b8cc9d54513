package harness

// Scenario experiments: deterministic, hand-scheduled executions that
// regenerate the paper's figures (E1, E2) and the mechanism ablations
// (E9); plus the Theorem 2 adversary runs (E5).

import (
	"fmt"

	"churnreg/internal/adversary"
	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/esyncreg"
	"churnreg/internal/metrics"
	"churnreg/internal/netsim"
	"churnreg/internal/sim"
	"churnreg/internal/spec"
	"churnreg/internal/syncreg"
)

// fig3Delta is the δ used by the scripted figure scenarios.
const fig3Delta = 10

// fig3Run executes the Figure 3 scenario with or without the join
// pre-wait and reports the joiner's post-join read and whether it violates
// regularity.
func fig3Run(seed uint64, withWait bool) (readSN core.SeqNum, writeReturned, joined bool, violation bool) {
	// WRITEs crawl (exactly δ); the joiner's INQUIRY to the writer takes
	// the full δ too (and the writer departs first); everything else is
	// fast. IDs: p1 writer, p2-p3 replicas, p4 joiner.
	model := netsim.ScriptedDelayModel{
		Base: netsim.FixedDelayModel{D: 1},
		Overrides: map[netsim.Route]sim.Duration{
			{Kind: core.KindWrite}:                   fig3Delta,
			{From: 4, To: 1, Kind: core.KindInquiry}: fig3Delta,
		},
	}
	sys, err := dynsys.New(dynsys.Config{
		N:       3,
		Delta:   fig3Delta,
		Model:   model,
		Factory: syncreg.Factory(syncreg.Options{SkipInitialWait: !withWait}),
		Seed:    seed,
		Initial: core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		panic(err)
	}
	history := spec.NewHistory(core.VersionedValue{Val: 0, SN: 0})

	writer := sys.Node(1).(*syncreg.Node)
	wOp := history.BeginWrite(1, sys.Now())
	_ = writer.Write(core.DefaultRegister, 1, func(v core.VersionedValue, _ error) {
		history.CompleteWrite(wOp, sys.Now(), v)
		writeReturned = true
	})
	_ = sys.RunFor(1)
	_, node := sys.Spawn() // p4 enters just after the write began
	joiner := node.(*syncreg.Node)
	// The writer departs the moment its write returns (t = δ).
	_ = sys.RunUntil(fig3Delta)
	sys.KillProcess(1)
	_ = sys.RunFor(4 * fig3Delta)
	joined = joiner.Active()
	if joined {
		rOp := history.BeginRead(4, sys.Now())
		v := readLocal(joiner)
		history.CompleteRead(rOp, sys.Now(), v)
		readSN = v.SN
	}
	return readSN, writeReturned, joined, len(history.CheckRegular()) > 0
}

// readLocal is the synchronous protocol's read of register 0, which
// completes before Read returns; ⊥ if the node is not active.
func readLocal(n *syncreg.Node) core.VersionedValue {
	v := core.Bottom()
	_ = n.Read(core.DefaultRegister, func(got core.VersionedValue, _ error) { v = got })
	return v
}

// Fig3WhyWait regenerates Figure 3: the same timed scenario with and
// without the wait(δ) at join line 02.
func Fig3WhyWait(seed uint64) *metrics.Table {
	t := metrics.NewTable("E1 — Figure 3: join pre-wait",
		"variant", "write(1) returned", "join completed", "post-join read", "regular?")
	for _, withWait := range []bool{false, true} {
		sn, wrote, joined, violated := fig3Run(seed, withWait)
		variant := "no wait (Fig 3a)"
		if withWait {
			variant = "wait δ (Fig 3b)"
		}
		verdict := "OK"
		if violated {
			verdict = "VIOLATION (stale)"
		}
		t.AddRow(variant, fmt.Sprintf("%v", wrote), fmt.Sprintf("%v", joined),
			fmt.Sprintf("sn=%d", sn), verdict)
	}
	t.AddNote("paper: without the wait the joiner returns the old value after write(1) completed")
	return t
}

// NewOldInversion regenerates the introduction's figure: two sequential
// reads inside a write's window observe new-then-old — legal for a regular
// register, impossible for an atomic one.
func NewOldInversion(seed uint64) *metrics.Table {
	// p1 writer; p2 near (WRITE arrives in 1 tick); p3 far (δ).
	const delta = 10
	model := netsim.ScriptedDelayModel{
		Base: netsim.FixedDelayModel{D: 1},
		Overrides: map[netsim.Route]sim.Duration{
			{From: 1, To: 3, Kind: core.KindWrite}: delta,
		},
	}
	sys, err := dynsys.New(dynsys.Config{
		N:       3,
		Delta:   delta,
		Model:   model,
		Factory: syncreg.Factory(syncreg.Options{}),
		Seed:    seed,
		Initial: core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		panic(err)
	}
	history := spec.NewHistory(core.VersionedValue{Val: 0, SN: 0})
	writer := sys.Node(1).(*syncreg.Node)
	wOp := history.BeginWrite(1, sys.Now())
	_ = writer.Write(core.DefaultRegister, 1, func(v core.VersionedValue, _ error) { history.CompleteWrite(wOp, sys.Now(), v) })

	read := func(id core.ProcessID) core.VersionedValue {
		n := sys.Node(id).(*syncreg.Node)
		op := history.BeginRead(id, sys.Now())
		v := readLocal(n)
		history.CompleteRead(op, sys.Now(), v)
		return v
	}
	_ = sys.RunFor(2)
	r1 := read(2) // near reader: already has the new value
	_ = sys.RunFor(3)
	r2 := read(3) // far reader: still holds the old value
	_ = sys.RunFor(2 * delta)

	t := metrics.NewTable("E2 — new/old inversion (regular ≠ atomic)",
		"operation", "interval", "returned", "comment")
	ops := history.Ops()
	t.AddRow("write(1) by p1", fmt.Sprintf("[%d,%d]", ops[0].Start, ops[0].End), "—", "broadcast reaches p2 fast, p3 at δ")
	t.AddRow("read by p2 (r1)", fmt.Sprintf("[%d,%d]", ops[1].Start, ops[1].End), fmt.Sprintf("sn=%d", r1.SN), "sees the NEW value")
	t.AddRow("read by p3 (r2)", fmt.Sprintf("[%d,%d]", ops[2].Start, ops[2].End), fmt.Sprintf("sn=%d", r2.SN), "sees the OLD value, after r1 finished")
	regOK := len(history.CheckRegular()) == 0
	invs := history.FindInversions()
	t.AddRow("verdict", "", "",
		fmt.Sprintf("regular: %v, inversions (atomicity failures): %d", regOK, len(invs)))
	t.AddNote("the execution is a legal regular-register behaviour yet not atomic — the paper's definitional figure")
	return t
}

// Theorem2Impossibility runs the two faces of Theorem 2 under a fully
// asynchronous adversary: safety collapse for the δ-trusting synchronous
// protocol, liveness collapse for the quorum protocol once delays exceed
// population turnover.
func Theorem2Impossibility(seed uint64) *metrics.Table {
	const (
		delta = 5
		n     = 20
		c     = 0.02
		dur   = 1500
	)
	t := metrics.NewTable("E5 — Theorem 2: fully asynchronous dynamic system",
		"protocol under adversary", "joins done", "reads done", "writes done", "regular violations", "min active")

	// Face 1: the synchronous protocol with its δ assumption broken
	// (WRITEs stretched 10×δ) — writes "return" before anyone hears them.
	res1, err := Run(Trial{
		N: n, Delta: delta, Churn: c, Duration: dur, Seed: seed,
		Model:    adversary.BrokenDeltaDelays(delta, 10),
		Factory:  syncreg.Factory(syncreg.Options{}),
		Workload: WorkloadMix(4*delta, delta, 2, true),
	})
	if err != nil {
		panic(err)
	}
	t.AddRow("syncreg, WRITEs delayed 10δ (safety face)",
		metrics.D(int64(res1.JoinCompleted)),
		metrics.D(int64(res1.Counts.ReadsCompleted)),
		metrics.D(int64(res1.Counts.WritesCompleted)),
		metrics.D(int64(len(res1.Violations))),
		metrics.D(int64(res1.MinActive)))

	// Face 2: the quorum protocol with every delay beyond full population
	// turnover — nobody ever assembles a quorum again.
	res2, err := Run(Trial{
		N: n, Delta: delta, Churn: c, Duration: dur, Seed: seed,
		Model:    adversary.TurnoverDelays(c, 2),
		Factory:  esyncreg.Factory(esyncreg.Options{}),
		Workload: WorkloadMix(4*delta, delta, 2, false),
	})
	if err != nil {
		panic(err)
	}
	t.AddRow("esyncreg, delays > 1/c turnover (liveness face)",
		metrics.D(int64(res2.JoinCompleted-n)), // joins beyond bootstrap
		metrics.D(int64(res2.Counts.ReadsCompleted)),
		metrics.D(int64(res2.Counts.WritesCompleted)),
		metrics.D(int64(len(res2.Violations))),
		metrics.D(int64(res2.MinActive)))
	t.AddNote("paper: no protocol implements a regular register in a fully asynchronous dynamic system")
	t.AddNote("safety face: stale reads appear; liveness face: no join/read/write completes and the active set dies out")
	return t
}

// DLPrevAblation regenerates the Lemma 5 rescue chain as a table: a joiner
// one reply short of a quorum is rescued by a later joiner if and only if
// DL_PREV is enabled.
func DLPrevAblation(seed uint64) *metrics.Table {
	const delta = 5
	run := func(opts esyncreg.Options) (rescued bool, rescueTime sim.Time) {
		sys, err := dynsys.New(dynsys.Config{
			N:       5,
			Delta:   delta,
			Model:   netsim.SynchronousModel{Delta: delta},
			Factory: esyncreg.Factory(opts),
			Seed:    seed,
			Initial: core.VersionedValue{Val: 0, SN: 0},
		})
		if err != nil {
			panic(err)
		}
		// p6's INQUIRY reaches only p4, p5: p1-p3 "departed first".
		sys.Network().SetDropRule(func(from, to core.ProcessID, m core.Message, _ sim.Time) bool {
			return from == 6 && m.Kind() == core.KindInquiry && to >= 1 && to <= 3
		})
		id, starved := sys.Spawn()
		_ = sys.RunFor(10 * delta)
		sys.Network().SetDropRule(nil)
		sys.Spawn() // the rescuer
		var at sim.Time
		sys.OnActivate(func(p core.ProcessID) {
			if p == id {
				at = sys.Now()
			}
		})
		_ = sys.RunFor(20 * delta)
		return starved.Active(), at
	}
	t := metrics.NewTable("E9 — DL_PREV ablation (Lemma 5 rescue chain)",
		"variant", "starved joiner rescued", "rescue time")
	on, atOn := run(esyncreg.Options{})
	off, _ := run(esyncreg.Options{DisableDLPrev: true})
	t.AddRow("DL_PREV enabled", fmt.Sprintf("%v", on), fmt.Sprintf("t=%d", atOn))
	t.AddRow("DL_PREV disabled", fmt.Sprintf("%v", off), "—")
	t.AddNote("scenario: a joiner with 2/3 of its reply quorum lost to departures; a later joiner completes and must answer it")
	return t
}
