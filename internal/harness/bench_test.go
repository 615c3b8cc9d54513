package harness

// One benchmark per experiment table (E1-E12, All): running
// `go test -bench . ./internal/harness/` regenerates every figure and claim
// of the paper and reports the experiment's headline quantity as a custom
// metric. Use -v to also see the rendered tables (b.Logf).

import (
	"strconv"
	"testing"

	"churnreg/internal/metrics"
	"churnreg/internal/syncreg"
)

// benchTable runs one experiment per iteration and logs its table.
func benchTable(b *testing.B, f func(uint64) *metrics.Table) *metrics.Table {
	b.Helper()
	var last *metrics.Table
	for i := 0; i < b.N; i++ {
		last = f(testSeed + uint64(i))
	}
	b.Logf("\n%s", last.Render())
	return last
}

func BenchmarkE1Fig3WhyWait(b *testing.B) {
	tb := benchTable(b, Fig3WhyWait)
	// Headline: the no-wait variant must violate, the wait variant not.
	if len(tb.Rows) == 2 && tb.Rows[1][4] == "OK" {
		b.ReportMetric(1, "fig3b-ok")
	}
}

func BenchmarkE2NewOldInversion(b *testing.B) {
	benchTable(b, NewOldInversion)
}

func BenchmarkE3Lemma2ActiveSet(b *testing.B) {
	tb := benchTable(b, Lemma2ActiveSet)
	holds := 0.0
	for _, row := range tb.Rows {
		if row[4] == "true" && row[7] == "true" {
			holds++
		}
	}
	b.ReportMetric(holds/float64(len(tb.Rows)), "bounds-hold-ratio")
}

func BenchmarkE4Theorem1SafetySweep(b *testing.B) {
	tb := benchTable(b, Theorem1SafetySweep)
	below := 0.0
	for _, row := range tb.Rows[:3] {
		v, _ := strconv.Atoi(row[5])
		below += float64(v)
	}
	b.ReportMetric(below, "violations-below-bound")
}

func BenchmarkE5Theorem2Impossibility(b *testing.B) {
	tb := benchTable(b, Theorem2Impossibility)
	v, _ := strconv.Atoi(tb.Rows[0][4])
	b.ReportMetric(float64(v), "async-safety-violations")
}

func BenchmarkE6ESyncGSTSweep(b *testing.B) {
	tb := benchTable(b, ESyncGSTSweep)
	viol := 0.0
	for _, row := range tb.Rows {
		v, _ := strconv.Atoi(row[6])
		viol += float64(v)
	}
	b.ReportMetric(viol, "violations-any-GST")
}

func BenchmarkE7ChurnBoundScaling(b *testing.B) {
	benchTable(b, ChurnBoundScaling)
}

func BenchmarkE8ProtocolComparison(b *testing.B) {
	tb := benchTable(b, ProtocolComparison)
	// Headline: sync read cost (messages) is zero.
	v, _ := strconv.ParseFloat(tb.Rows[0][4], 64)
	b.ReportMetric(v, "sync-msgs-per-read")
}

func BenchmarkE9DLPrevAblation(b *testing.B) {
	benchTable(b, DLPrevAblation)
}

func BenchmarkE10LatencyScaling(b *testing.B) {
	benchTable(b, LatencyScaling)
}

func BenchmarkE11AtomicUpgrade(b *testing.B) {
	tb := benchTable(b, AtomicUpgrade)
	inv, _ := strconv.Atoi(tb.Rows[1][4])
	b.ReportMetric(float64(inv), "atomic-inversions")
}

func BenchmarkE12BurstyChurn(b *testing.B) {
	tb := benchTable(b, BurstyChurn)
	v, _ := strconv.Atoi(tb.Rows[1][5])
	b.ReportMetric(float64(v), "bursty-violations")
}

// BenchmarkCheckerRegular measures the regularity checker on a recorded
// 2000-tick history.
func BenchmarkCheckerRegular(b *testing.B) {
	res, err := Run(Trial{
		N: 30, Delta: 5, Churn: 0.02,
		Factory:  syncreg.Factory(syncreg.Options{}),
		Duration: 2000,
		Seed:     testSeed,
		Workload: WorkloadMix(20, 5, 2, true),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := res.History.CheckRegular(); len(v) != 0 {
			b.Fatal("unexpected violation")
		}
	}
	b.ReportMetric(float64(res.History.Len()), "ops-checked")
}
