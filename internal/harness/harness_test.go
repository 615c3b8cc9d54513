package harness

import (
	"fmt"
	"strings"
	"testing"

	"churnreg/internal/syncreg"
)

const testSeed = 42

func TestRunTrialBasics(t *testing.T) {
	res, err := Run(Trial{
		N: 10, Delta: 5, Churn: 0.01, Duration: 500, Seed: testSeed,
		Factory:  syncreg.Factory(syncreg.Options{}),
		Workload: WorkloadMix(20, 5, 2, true),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.WritesCompleted == 0 || res.Counts.ReadsCompleted == 0 {
		t.Fatalf("no ops completed: %+v", res.Counts)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations below the bound: %v", res.Violations[0])
	}
	if res.JoinCompleted == 0 {
		t.Fatal("no join completed")
	}
	if res.MinActive <= 0 {
		t.Fatalf("min active = %d", res.MinActive)
	}
}

func TestFig3WhyWait(t *testing.T) {
	tb := Fig3WhyWait(testSeed)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.Rows[0][4], "VIOLATION") {
		t.Fatalf("Fig 3a row did not violate: %v", tb.Rows[0])
	}
	if tb.Rows[1][4] != "OK" {
		t.Fatalf("Fig 3b row not OK: %v", tb.Rows[1])
	}
}

func TestNewOldInversion(t *testing.T) {
	tb := NewOldInversion(testSeed)
	verdict := tb.Rows[len(tb.Rows)-1][3]
	if !strings.Contains(verdict, "regular: true") {
		t.Fatalf("execution not regular: %q", verdict)
	}
	if !strings.Contains(verdict, "inversions (atomicity failures): 1") {
		t.Fatalf("inversion not observed: %q", verdict)
	}
}

func TestLemma2ActiveSet(t *testing.T) {
	if testing.Short() {
		t.Skip("active-set sweep is slow")
	}
	tb := Lemma2ActiveSet(testSeed)
	for _, row := range tb.Rows {
		if row[4] != "true" {
			t.Fatalf("Lemma 2 paper bound violated at the initial window: row %v", row)
		}
		if row[7] != "true" {
			t.Fatalf("steady-state bound n(1−6δc) violated: row %v", row)
		}
	}
}

func TestTheorem1SafetySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("churn-rate safety sweep is slow")
	}
	tb := Theorem1SafetySweep(testSeed)
	// Below the bound: zero violations.
	for _, row := range tb.Rows[:3] {
		if row[5] != "0" {
			t.Fatalf("violations below the churn bound: row %v", row)
		}
	}
	// Far above the bound the guarantee must visibly degrade: stale reads
	// or ⊥-holding actives appear.
	degraded := false
	for _, row := range tb.Rows[3:] {
		if row[5] != "0" || row[3] != "0" {
			degraded = true
		}
	}
	if !degraded {
		t.Fatal("runs far above the churn bound showed no degradation; experiment not discriminating")
	}
}

func TestTheorem2Impossibility(t *testing.T) {
	tb := Theorem2Impossibility(testSeed)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Safety face: violations > 0.
	if tb.Rows[0][4] == "0" {
		t.Fatalf("async adversary produced no safety violations: %v", tb.Rows[0])
	}
	// Liveness face: essentially no join completes and the active set
	// collapses (the protected writer may survive as the last active).
	if tb.Rows[1][1] != "0" {
		t.Fatalf("joins completed under turnover delays: %v", tb.Rows[1])
	}
	if tb.Rows[1][5] != "0" && tb.Rows[1][5] != "1" {
		t.Fatalf("active set did not collapse: %v", tb.Rows[1])
	}
}

func TestESyncGSTSweep(t *testing.T) {
	tb := ESyncGSTSweep(testSeed)
	for _, row := range tb.Rows {
		if row[6] != "0" {
			t.Fatalf("esync violated regularity (GST=%s): %v", row[0], row)
		}
		if row[3] == "0" || row[4] == "0" {
			t.Fatalf("no ops completed (GST=%s): %v", row[0], row)
		}
	}
}

func TestChurnBoundScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("bound scaling sweep is slow")
	}
	tb := ChurnBoundScaling(testSeed)
	if len(tb.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(tb.Rows))
	}
	// sync rows (the last two) must be healthy: no stuck joins.
	for _, row := range tb.Rows[9:] {
		if row[0] != "sync" {
			t.Fatalf("row layout changed: %v", row)
		}
		if row[7] != "0" {
			t.Fatalf("sync protocol violated regularity: %v", row)
		}
	}
}

func TestProtocolComparison(t *testing.T) {
	tb := ProtocolComparison(testSeed)
	// sync reads: zero latency, zero messages.
	for _, row := range tb.Rows[:3] {
		if row[2] != "0.0" {
			t.Fatalf("sync read latency nonzero: %v", row)
		}
		if row[4] != "0.0" {
			t.Fatalf("sync read sent messages: %v", row)
		}
	}
	// esync and ABD reads cost at least n messages each.
	for _, row := range tb.Rows[3:] {
		if row[4] == "0.0" {
			t.Fatalf("quorum read free?: %v", row)
		}
	}
}

func TestDLPrevAblationTable(t *testing.T) {
	tb := DLPrevAblation(testSeed)
	if tb.Rows[0][1] != "true" {
		t.Fatalf("DL_PREV on: joiner not rescued: %v", tb.Rows[0])
	}
	if tb.Rows[1][1] != "false" {
		t.Fatalf("DL_PREV off: joiner rescued anyway: %v", tb.Rows[1])
	}
}

func TestLatencyScaling(t *testing.T) {
	tb := LatencyScaling(testSeed)
	// sync join p50 ≈ 3δ for each δ row.
	for i, delta := range []float64{2, 5, 10, 20} {
		row := tb.Rows[i]
		var p50 float64
		if _, err := sscan(row[3], &p50); err != nil {
			t.Fatalf("bad p50 cell %q", row[3])
		}
		if p50 < 3*delta-1 || p50 > 3*delta+1 {
			t.Fatalf("sync join p50 = %v for δ=%v, want ≈ %v", p50, delta, 3*delta)
		}
	}
}

func TestAllExperimentsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite is slow")
	}
	for _, e := range All() {
		tables := e.Run(testSeed)
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", e.ID)
		}
		for _, tb := range tables {
			out := tb.Render()
			if len(out) == 0 || !strings.Contains(out, "==") {
				t.Fatalf("%s rendered empty table", e.ID)
			}
			t.Logf("\n%s", out)
		}
	}
}

// sscan parses a single float table cell.
func sscan(s string, out *float64) (int, error) {
	return fmt.Sscanf(s, "%f", out)
}
