package harness

// Failure-injection suite: break the model's axioms on purpose and verify
// the checkers catch the damage (or the system degrades the way theory
// says it must). A checker that never fires on broken runs proves nothing
// about clean ones.

import (
	"testing"

	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/esyncreg"
	"churnreg/internal/netsim"
	"churnreg/internal/sim"
	"churnreg/internal/syncreg"
)

// TestLostWritesAreCaught breaks the reliable-network axiom: WRITE
// messages silently vanish. The synchronous protocol's writes still
// "complete" (its timer fires regardless), so reads elsewhere go stale —
// and the checker must say so.
func TestLostWritesAreCaught(t *testing.T) {
	const delta = 5
	res, err := Run(Trial{
		N: 10, Delta: delta, Churn: 0,
		Duration: 500, Seed: 3,
		Factory:  syncreg.Factory(syncreg.Options{}),
		Workload: WorkloadMix(4*delta, delta, 2, false),
		Configure: func(sys *dynsys.System) {
			sys.Network().SetDropRule(func(from, to core.ProcessID, m core.Message, _ sim.Time) bool {
				return m.Kind() == core.KindWrite && from != to
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("all WRITEs lost, yet the checker saw a legal regular register")
	}
	if res.Counts.WritesCompleted == 0 {
		t.Fatal("sync writes must still 'complete' (they are timer-driven) — scenario broken")
	}
}

// TestLostRepliesStallQuorumJoins breaks delivery of REPLYs to joiners in
// the quorum protocol without churn: joins must hang (liveness loss), but
// nothing unsafe may be recorded.
func TestLostRepliesStallQuorumJoins(t *testing.T) {
	const delta = 5
	res, err := Run(Trial{
		N: 8, Delta: delta, Churn: 0,
		Duration: 400, Seed: 3,
		Factory: esyncreg.Factory(esyncreg.Options{}),
		Configure: func(sys *dynsys.System) {
			sys.Network().SetDropRule(func(from, to core.ProcessID, m core.Message, _ sim.Time) bool {
				return m.Kind() == core.KindReply && to > 8 // bootstrap is 1..8
			})
			sys.Scheduler().After(10, func() { sys.Spawn() })
			sys.Scheduler().After(50, func() { sys.Spawn() })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.JoinPending != 2 {
		t.Fatalf("pending joins = %d, want both spawned joiners stuck", res.JoinPending)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("liveness fault caused a safety violation: %v", res.Violations[0])
	}
}

// TestMinorityPartitionStallsButStaysSafe splits an esync system so a
// minority is isolated: reads and writes issued by the minority hang;
// the majority side keeps operating; safety holds everywhere.
func TestMinorityPartitionStallsButStaysSafe(t *testing.T) {
	const delta = 5
	const n = 9 // majority = 5; minority side = {1, 2, 3}
	minority := map[core.ProcessID]bool{1: true, 2: true, 3: true}

	sys, err := dynsys.New(dynsys.Config{
		N:       n,
		Delta:   delta,
		Model:   netsim.SynchronousModel{Delta: delta},
		Factory: esyncreg.Factory(esyncreg.Options{}),
		Seed:    4,
		Initial: core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Network().SetDropRule(func(from, to core.ProcessID, m core.Message, _ sim.Time) bool {
		return minority[from] != minority[to]
	})

	// Majority-side write completes.
	maj := sys.Node(5).(*esyncreg.Node)
	majWrote := false
	if err := maj.Write(0, 77, func(core.VersionedValue, error) { majWrote = true }); err != nil {
		t.Fatal(err)
	}
	// Minority-side read hangs.
	min3 := sys.Node(1).(*esyncreg.Node)
	minRead := false
	if err := min3.Read(0, func(core.VersionedValue, error) { minRead = true }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(100 * delta); err != nil {
		t.Fatal(err)
	}
	if !majWrote {
		t.Fatal("majority-side write did not complete")
	}
	if minRead {
		t.Fatal("minority-side read completed without a quorum")
	}

	// Heal the partition: the stalled read completes with a fresh value.
	sys.Network().SetDropRule(nil)
	// Nothing retransmits dropped traffic, so issue a probe that makes the
	// minority reader's quorum achievable again: the read is still
	// pending, and REPLYs flow once any majority node answers a new READ…
	// the pending read's broadcast is gone, though — the paper's reliable
	// network never loses messages, so healing cannot resurrect them.
	// What must still work: NEW operations after the heal.
	min2 := sys.Node(2).(*esyncreg.Node)
	var healed core.VersionedValue
	if err := min2.Read(0, func(v core.VersionedValue, _ error) { healed = v }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(20 * delta); err != nil {
		t.Fatal(err)
	}
	if healed.Val != 77 || healed.SN != 1 {
		t.Fatalf("post-heal read = %v, want ⟨77,#1⟩", healed)
	}
}

// TestDepartedProcessStaysSilent verifies the leave semantics: after a
// process leaves, none of its queued timers fire and no message it
// "sends" reaches anyone — the paper's "does not longer send or receive".
func TestDepartedProcessStaysSilent(t *testing.T) {
	const delta = 5
	sys, err := dynsys.New(dynsys.Config{
		N:       4,
		Delta:   delta,
		Model:   netsim.SynchronousModel{Delta: delta},
		Factory: syncreg.Factory(syncreg.Options{}),
		Seed:    1,
		Initial: core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A joiner departs mid-join: its INQUIRY timer must not fire.
	id, _ := sys.Spawn()
	sentBefore := sys.Network().Stats().SentByKind[core.KindInquiry]
	sys.KillProcess(id)
	if err := sys.RunFor(10 * delta); err != nil {
		t.Fatal(err)
	}
	if got := sys.Network().Stats().SentByKind[core.KindInquiry]; got != sentBefore {
		t.Fatalf("departed joiner broadcast %d INQUIRYs", got-sentBefore)
	}
	if sys.Tracker().Record(id).IsActive() {
		t.Fatal("departed joiner became active")
	}
}
