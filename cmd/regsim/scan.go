package main

import (
	"flag"
	"fmt"
	"io"

	"churnreg/internal/churn"
	"churnreg/internal/harness"
	"churnreg/internal/sim"
)

// scan sweeps the churn rate for one protocol and emits CSV (one row per
// churn value and seed) for plotting the degradation curves around the
// paper's bounds.
func scan(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("regsim scan", flag.ContinueOnError)
	var (
		protocol = fs.String("protocol", "sync", "protocol: sync, esync, or abd")
		n        = fs.Int("n", 30, "constant system size")
		delta    = fs.Int64("delta", 5, "communication bound δ (ticks)")
		duration = fs.Int64("duration", 2000, "ticks per run")
		steps    = fs.Int("steps", 10, "number of churn values")
		maxMult  = fs.Float64("max-mult", 2.0, "sweep up to this multiple of the protocol's churn bound")
		seeds    = fs.Int("seeds", 3, "seeds per churn value")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	nodes, err := factory(*protocol)
	if err != nil {
		return err
	}
	bound := churn.SyncChurnBound(sim.Duration(*delta)) // abd has none: sync's, for scale
	if *protocol == "esync" {
		bound = churn.ESyncChurnBound(sim.Duration(*delta), *n)
	}

	fmt.Fprintln(w, "protocol,c,c_over_bound,seed,joins_completed,joins_pending,reads_completed,writes_completed,violations,inversions,min_active,join_p50,join_p99")
	for i := 0; i <= *steps; i++ {
		c := bound * *maxMult * float64(i) / float64(*steps)
		if c >= 1 {
			break
		}
		for seed := 1; seed <= *seeds; seed++ {
			res, err := harness.Run(harness.Trial{
				N: *n, Delta: sim.Duration(*delta), Churn: c,
				MinLifetime: 3 * sim.Duration(*delta),
				Factory:     nodes,
				Duration:    sim.Duration(*duration),
				Seed:        uint64(seed),
				Workload:    harness.WorkloadMix(4*sim.Duration(*delta), sim.Duration(*delta), 2, true),
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s,%.6f,%.3f,%d,%d,%d,%d,%d,%d,%d,%d,%.0f,%.0f\n",
				*protocol, c, safeDiv(c, bound), seed,
				res.JoinCompleted, res.JoinPending,
				res.Counts.ReadsCompleted, res.Counts.WritesCompleted,
				len(res.Violations), len(res.Inversions), res.MinActive,
				res.JoinLatency.Quantile(0.5), res.JoinLatency.Quantile(0.99))
		}
	}
	return nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
