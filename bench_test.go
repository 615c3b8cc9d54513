package churnreg_test

// Micro-benchmarks of the simulator and protocol hot paths, through the
// public facade where one exists. The experiment benchmarks (E1-E12) are
// internal/harness's.

import (
	"fmt"
	"testing"

	"churnreg"
	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/esyncreg"
	"churnreg/internal/netsim"
	"churnreg/internal/sim"
	"churnreg/internal/syncreg"
)

const benchSeed = 42

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
