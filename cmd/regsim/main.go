// Command regsim is the simulator of a regular register in a dynamic
// system. With flags only it runs one configured simulation and reports
// liveness, safety, latency, and message-cost metrics; `regsim scan`
// sweeps the churn rate and emits CSV; `regsim experiments` regenerates
// the paper's experiment tables. Every run is deterministic in its seed.
//
// Usage:
//
//	regsim -protocol sync -n 30 -delta 5 -churn 0.02 -duration 2000
//	regsim -protocol esync -n 10 -delta 5 -churn 0.002 -gst 500
//	regsim -protocol abd -n 10 -churn 0.02     # watch the baseline erode
//	regsim scan -protocol sync -n 30 -delta 5 -steps 12 -max-mult 4 > sync.csv
//	regsim experiments [-seed N] [-only E4] [-list] [-markdown]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"churnreg/internal/abd"
	"churnreg/internal/churn"
	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/esyncreg"
	"churnreg/internal/harness"
	"churnreg/internal/metrics"
	"churnreg/internal/netsim"
	"churnreg/internal/sim"
	"churnreg/internal/syncreg"
	"churnreg/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "regsim:", err)
		os.Exit(1)
	}
}

// run dispatches on the subcommand named by the first argument, if any.
func run(args []string, w io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "scan":
			return scan(args[1:], w)
		case "experiments":
			return experiments(args[1:], w)
		}
	}
	return simulate(args, w)
}

// parse parses args into fs and refuses what is left: a subcommand comes
// before every flag, and nothing else is positional.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (subcommands, before any flag: scan, experiments)", fs.Arg(0))
	}
	return nil
}

// factory returns the node factory of the named protocol.
func factory(protocol string) (core.NodeFactory, error) {
	switch protocol {
	case "sync":
		return syncreg.Factory(syncreg.Options{}), nil
	case "esync":
		return esyncreg.Factory(esyncreg.Options{}), nil
	case "abd":
		return abd.Factory(), nil
	}
	return nil, fmt.Errorf("unknown protocol %q (want sync, esync, or abd)", protocol)
}

// simulate runs one configured simulation and prints its metrics table.
func simulate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("regsim", flag.ContinueOnError)
	var (
		protocol   = fs.String("protocol", "sync", "protocol: sync, esync, or abd")
		n          = fs.Int("n", 20, "constant system size")
		delta      = fs.Int64("delta", 5, "communication bound δ (ticks)")
		churnRate  = fs.Float64("churn", 0.01, "churn rate c (fraction of n per tick)")
		duration   = fs.Int64("duration", 2000, "simulated run length (ticks)")
		seed       = fs.Uint64("seed", 1, "deterministic seed")
		writeEvery = fs.Int64("write-every", 20, "write period (0 = no writes)")
		readEvery  = fs.Int64("read-every", 5, "read period (0 = no reads)")
		fanout     = fs.Int("fanout", 2, "readers per read round")
		joinProbe  = fs.Bool("join-probe", true, "read on every completed join")
		gst        = fs.Int64("gst", -1, "eventually synchronous: global stabilization time (-1 = synchronous)")
		preGSTMax  = fs.Int64("pre-gst-max", 0, "max pre-GST delay (0 = 100δ)")
		minLife    = fs.Int64("min-lifetime", 0, "churn cannot remove processes younger than this")
		traceCap   = fs.Int("trace", 0, "print the first N timeline events (0 = no trace)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	nodes, err := factory(*protocol)
	if err != nil {
		return err
	}
	var model netsim.DelayModel
	if *gst >= 0 {
		model = netsim.EventuallySynchronousModel{
			GST:       sim.Time(*gst),
			Delta:     sim.Duration(*delta),
			PreGSTMax: sim.Duration(*preGSTMax),
		}
	}

	var timeline *trace.Log
	var configure func(*dynsys.System)
	if *traceCap > 0 {
		timeline = trace.New(*traceCap)
		configure = func(sys *dynsys.System) { trace.Attach(sys, timeline) }
	}
	res, err := harness.Run(harness.Trial{
		N:           *n,
		Delta:       sim.Duration(*delta),
		Churn:       *churnRate,
		MinLifetime: sim.Duration(*minLife),
		Model:       model,
		Factory:     nodes,
		Duration:    sim.Duration(*duration),
		Seed:        *seed,
		Workload: harness.WorkloadMix(
			sim.Duration(*writeEvery), sim.Duration(*readEvery), *fanout, *joinProbe),
		Configure: configure,
	})
	if err != nil {
		return err
	}
	if timeline != nil {
		fmt.Fprintln(w, "== timeline ==")
		if err := timeline.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	t := metrics.NewTable(fmt.Sprintf("regsim: %s n=%d δ=%d c=%g seed=%d (%d ticks)",
		*protocol, *n, *delta, *churnRate, *seed, *duration),
		"metric", "value")
	t.AddRow("churn bound 1/(3δ)", metrics.F(churn.SyncChurnBound(sim.Duration(*delta)), 4))
	t.AddRow("churn bound 1/(3δn)", metrics.F(churn.ESyncChurnBound(sim.Duration(*delta), *n), 5))
	t.AddRow("joins completed / pending / abandoned",
		fmt.Sprintf("%d / %d / %d", res.JoinCompleted, res.JoinPending, res.JoinAbandoned))
	t.AddRow("join latency p50 / p99",
		fmt.Sprintf("%.0f / %.0f", res.JoinLatency.Quantile(0.5), res.JoinLatency.Quantile(0.99)))
	t.AddRow("writes completed / begun",
		fmt.Sprintf("%d / %d", res.Counts.WritesCompleted, res.Counts.WritesBegun))
	t.AddRow("write latency mean / max",
		fmt.Sprintf("%.1f / %.0f", res.WriteLatency.Mean(), res.WriteLatency.Max()))
	t.AddRow("reads completed / begun",
		fmt.Sprintf("%d / %d", res.Counts.ReadsCompleted, res.Counts.ReadsBegun))
	t.AddRow("read latency mean / max",
		fmt.Sprintf("%.1f / %.0f", res.ReadLatency.Mean(), res.ReadLatency.Max()))
	t.AddRow("REGULAR VIOLATIONS", metrics.D(int64(len(res.Violations))))
	t.AddRow("new/old inversions (atomicity misses)", metrics.D(int64(len(res.Inversions))))
	t.AddRow("min / max active", fmt.Sprintf("%d / %d", res.MinActive, res.MaxActive))
	t.AddRow("min |A(τ,τ+3δ)|", metrics.D(int64(res.MinActiveWindow)))
	t.AddRow("messages sent / delivered",
		fmt.Sprintf("%d / %d", res.Net.Sent, res.Net.Delivered))
	t.AddRow("messages lost to departures", metrics.D(int64(res.Net.DroppedDeparted)))
	t.AddRow("bytes on wire", metrics.D(int64(res.Net.BytesSent)))
	fmt.Fprintln(w, t.Render())

	for i, v := range res.Violations {
		if i == 5 {
			fmt.Fprintf(w, "... and %d more violations\n", len(res.Violations)-5)
			break
		}
		fmt.Fprintln(w, "violation:", v)
	}
	return nil
}
