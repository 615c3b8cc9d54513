package harness

// Multi-seed sweeps: the theorems quantify over all executions; these
// tests quantify over a batch of seeded runs per configuration, which is
// as close as testing gets. Every run below the relevant churn bound must
// be violation-free; atomic runs additionally inversion-free.

import (
	"testing"

	"churnreg/internal/atomicreg"
	"churnreg/internal/churn"
	"churnreg/internal/esyncreg"
	"churnreg/internal/syncreg"
)

const sweepSeeds = 12

func TestSyncRegularAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	const delta = 5
	for seed := uint64(1); seed <= sweepSeeds; seed++ {
		res, err := Run(Trial{
			N: 25, Delta: delta, Churn: churn.SyncChurnBound(delta) * 0.7,
			Policy:   churn.RemoveOldestActive,
			Duration: 1500, Seed: seed,
			Factory:  syncreg.Factory(syncreg.Options{}),
			Workload: WorkloadMix(3*delta, delta, 3, true),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: %d violations below the bound; first: %v",
				seed, len(res.Violations), res.Violations[0])
		}
		if len(res.MonotoneViols) != 0 {
			t.Fatalf("seed %d: session guarantee broke: %v", seed, res.MonotoneViols[0])
		}
		if res.Counts.ReadsCompleted < 100 {
			t.Fatalf("seed %d: only %d reads; run too quiet to mean anything",
				seed, res.Counts.ReadsCompleted)
		}
	}
}

func TestESyncRegularAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	const delta = 5
	const n = 12
	for seed := uint64(1); seed <= sweepSeeds; seed++ {
		res, err := Run(Trial{
			N: n, Delta: delta, Churn: churn.ESyncChurnBound(delta, n),
			MinLifetime: 3 * delta,
			Duration:    2000, Seed: seed,
			Factory:  esyncreg.Factory(esyncreg.Options{}),
			Workload: WorkloadMix(10*delta, 3*delta, 2, false),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: esync violated regularity below its bound: %v",
				seed, res.Violations[0])
		}
		if res.MinActive <= n/2 {
			t.Fatalf("seed %d: majority-active assumption broke (min %d of %d)",
				seed, res.MinActive, n)
		}
	}
}

func TestAtomicNoInversionsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	const delta = 5
	const n = 10
	for seed := uint64(1); seed <= sweepSeeds; seed++ {
		res, err := Run(Trial{
			N: n, Delta: delta, Churn: churn.ESyncChurnBound(delta, n),
			MinLifetime: 3 * delta,
			Duration:    1500, Seed: seed,
			Factory:  atomicreg.Factory(esyncreg.Options{}),
			Workload: WorkloadMix(8*delta, 3*delta, 2, false),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: atomic register violated regularity: %v", seed, res.Violations[0])
		}
		if len(res.Inversions) != 0 {
			t.Fatalf("seed %d: atomic register inverted: %v", seed, res.Inversions[0])
		}
		// Guard against vacuity: a workload/protocol interface mismatch
		// that issues zero ops would pass the checks above trivially.
		if c := res.History.Counts(); c.WritesCompleted == 0 || c.ReadsCompleted == 0 {
			t.Fatalf("seed %d: no ops driven (writes=%d reads=%d); sweep is vacuous",
				seed, c.WritesCompleted, c.ReadsCompleted)
		}
	}
}

func TestVerdictsStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	// The E1/E2/E9 scenario verdicts are scripted and must not depend on
	// the seed at all.
	for seed := uint64(1); seed <= 5; seed++ {
		tb := Fig3WhyWait(seed)
		if tb.Rows[0][4] == "OK" || tb.Rows[1][4] != "OK" {
			t.Fatalf("seed %d flipped the Figure 3 verdicts: %v", seed, tb.Rows)
		}
		inv := NewOldInversion(seed)
		verdict := inv.Rows[len(inv.Rows)-1][3]
		if verdict != "regular: true, inversions (atomicity failures): 1" {
			t.Fatalf("seed %d flipped the inversion verdict: %q", seed, verdict)
		}
		dl := DLPrevAblation(seed)
		if dl.Rows[0][1] != "true" || dl.Rows[1][1] != "false" {
			t.Fatalf("seed %d flipped the DL_PREV verdicts: %v", seed, dl.Rows)
		}
	}
}
