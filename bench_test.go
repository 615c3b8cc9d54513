package churnreg_test

// One benchmark per experiment table (E1-E12, internal/harness.All): running
// `go test -bench=.` regenerates every figure/claim of the paper and
// reports the experiment's headline quantity as a custom metric. Use
// -v to also see the rendered tables (b.Logf). The micro-benchmarks at
// the bottom characterize the simulator and protocol hot paths.

import (
	"fmt"
	"strconv"
	"testing"

	"churnreg"
	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/esyncreg"
	"churnreg/internal/harness"
	"churnreg/internal/metrics"
	"churnreg/internal/netsim"
	"churnreg/internal/sim"
	"churnreg/internal/syncreg"
)

const benchSeed = 42

// benchTable runs one experiment per iteration and logs its table.
func benchTable(b *testing.B, f func(uint64) *metrics.Table) *metrics.Table {
	b.Helper()
	var last *metrics.Table
	for i := 0; i < b.N; i++ {
		last = f(benchSeed + uint64(i))
	}
	b.Logf("\n%s", last.Render())
	return last
}

func BenchmarkE1Fig3WhyWait(b *testing.B) {
	tb := benchTable(b, harness.Fig3WhyWait)
	// Headline: the no-wait variant must violate, the wait variant not.
	if len(tb.Rows) == 2 && tb.Rows[1][4] == "OK" {
		b.ReportMetric(1, "fig3b-ok")
	}
}

func BenchmarkE2NewOldInversion(b *testing.B) {
	benchTable(b, harness.NewOldInversion)
}

func BenchmarkE3Lemma2ActiveSet(b *testing.B) {
	tb := benchTable(b, harness.Lemma2ActiveSet)
	holds := 0.0
	for _, row := range tb.Rows {
		if row[4] == "true" && row[7] == "true" {
			holds++
		}
	}
	b.ReportMetric(holds/float64(len(tb.Rows)), "bounds-hold-ratio")
}

func BenchmarkE4Theorem1SafetySweep(b *testing.B) {
	tb := benchTable(b, harness.Theorem1SafetySweep)
	below := 0.0
	for _, row := range tb.Rows[:3] {
		v, _ := strconv.Atoi(row[5])
		below += float64(v)
	}
	b.ReportMetric(below, "violations-below-bound")
}

func BenchmarkE5Theorem2Impossibility(b *testing.B) {
	tb := benchTable(b, harness.Theorem2Impossibility)
	v, _ := strconv.Atoi(tb.Rows[0][4])
	b.ReportMetric(float64(v), "async-safety-violations")
}

func BenchmarkE6ESyncGSTSweep(b *testing.B) {
	tb := benchTable(b, harness.ESyncGSTSweep)
	viol := 0.0
	for _, row := range tb.Rows {
		v, _ := strconv.Atoi(row[6])
		viol += float64(v)
	}
	b.ReportMetric(viol, "violations-any-GST")
}

func BenchmarkE7ChurnBoundScaling(b *testing.B) {
	benchTable(b, harness.ChurnBoundScaling)
}

func BenchmarkE8ProtocolComparison(b *testing.B) {
	tb := benchTable(b, harness.ProtocolComparison)
	// Headline: sync read cost (messages) is zero.
	v, _ := strconv.ParseFloat(tb.Rows[0][4], 64)
	b.ReportMetric(v, "sync-msgs-per-read")
}

func BenchmarkE9DLPrevAblation(b *testing.B) {
	benchTable(b, harness.DLPrevAblation)
}

func BenchmarkE10LatencyScaling(b *testing.B) {
	benchTable(b, harness.LatencyScaling)
}

func BenchmarkE11AtomicUpgrade(b *testing.B) {
	tb := benchTable(b, harness.AtomicUpgrade)
	inv, _ := strconv.Atoi(tb.Rows[1][4])
	b.ReportMetric(float64(inv), "atomic-inversions")
}

func BenchmarkE12BurstyChurn(b *testing.B) {
	tb := benchTable(b, harness.BurstyChurn)
	v, _ := strconv.Atoi(tb.Rows[1][5])
	b.ReportMetric(float64(v), "bursty-violations")
}

// --- micro-benchmarks ---

// BenchmarkSimulatedOpsSync measures end-to-end simulated write+read pairs
// per second through the public API (synchronous protocol).
func BenchmarkSimulatedOpsSync(b *testing.B) {
	c, err := churnreg.NewSimCluster(
		churnreg.WithN(20),
		churnreg.WithDelta(5),
		churnreg.WithChurnRate(0.01),
		churnreg.WithSeed(benchSeed),
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Write(int64(i)); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedOpsESync is the same for the quorum protocol.
func BenchmarkSimulatedOpsESync(b *testing.B) {
	c, err := churnreg.NewSimCluster(
		churnreg.WithN(20),
		churnreg.WithDelta(5),
		churnreg.WithProtocol(churnreg.EventuallySynchronous),
		churnreg.WithSeed(benchSeed),
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Write(int64(i)); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiKeyThroughput measures keyed-namespace scaling: write+read
// pairs spread round-robin over K registers of one cluster, under churn,
// so the per-process join cost (one INQUIRY, ever) is amortized across
// every key. The headline is that ns/op stays roughly flat as K grows —
// per-op cost is sublinear in key count, because only per-key state
// multiplies while membership work does not. Run with -bench
// MultiKeyThroughput and compare ns/op across the sub-benchmarks.
func BenchmarkMultiKeyThroughput(b *testing.B) {
	for _, keys := range []int{1, 4, 16, 64, 256} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			c, err := churnreg.NewSimCluster(
				churnreg.WithN(20),
				churnreg.WithDelta(5),
				churnreg.WithChurnRate(0.01),
				churnreg.WithSeed(benchSeed),
			)
			if err != nil {
				b.Fatal(err)
			}
			start := c.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := churnreg.RegisterID(i % keys)
				if err := c.WriteKey(k, int64(i)); err != nil {
					b.Fatal(err)
				}
				if _, err := c.ReadKey(k); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if rep := c.Check(); !rep.OK() {
				b.Fatalf("regularity violated during bench: %s", rep)
			}
			elapsed := c.Now() - start
			if elapsed > 0 {
				b.ReportMetric(float64(2*b.N)/float64(elapsed), "simops/tick")
			}
		})
	}
}

// BenchmarkChurnSimulationTick measures raw simulation throughput: a
// 50-process synchronous system under churn (no workload, no checker),
// cost per simulated tick.
func BenchmarkChurnSimulationTick(b *testing.B) {
	sys, err := dynsys.New(dynsys.Config{
		N:         50,
		Delta:     5,
		Model:     netsim.SynchronousModel{Delta: 5},
		Factory:   syncreg.Factory(syncreg.Options{}),
		Seed:      benchSeed,
		ChurnRate: 0.02,
		Initial:   core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := sys.RunFor(sim.Duration(b.N)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(sys.Network().Stats().Sent)/float64(b.N), "msgs/tick")
}

// BenchmarkQuorumJoin measures the full join path of the eventually
// synchronous protocol (INQUIRY broadcast → majority replies → deferred
// reply flush) in a 30-process system.
func BenchmarkQuorumJoin(b *testing.B) {
	c, err := churnreg.NewSimCluster(
		churnreg.WithN(30),
		churnreg.WithDelta(5),
		churnreg.WithProtocol(churnreg.EventuallySynchronous),
		churnreg.WithSeed(benchSeed),
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := c.Join()
		if err != nil {
			b.Fatal(err)
		}
		c.Leave(id) // keep the population from growing unboundedly
	}
}

// BenchmarkCheckerRegular measures the regularity checker on a recorded
// 2000-tick history.
func BenchmarkCheckerRegular(b *testing.B) {
	res, err := harness.Run(harness.Trial{
		N: 30, Delta: 5, Churn: 0.02,
		Factory:  syncreg.Factory(syncreg.Options{}),
		Duration: 2000,
		Seed:     benchSeed,
		Workload: harness.WorkloadMix(20, 5, 2, true),
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

// BenchmarkESyncMessagePath measures the esync node's message handling hot
// path directly (no network): one INQUIRY against an active node.
func BenchmarkESyncMessagePath(b *testing.B) {
	env := &nullEnv{n: 30}
	node := esyncreg.New(env, coreBootstrap(), esyncreg.Options{})
	node.Start()
	inq := coreInquiry(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.Deliver(7, inq)
	}
}
