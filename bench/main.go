//go:build linux

// Command bench is the repository's benchmark: one reference cluster of
// real regserve processes, four long workloads, five end-to-end metrics
// taken from twenty measured windows, and a traced run that looks at each
// layer from outside. BENCHMARK.json at the root of the
// repository describes it to the driver; bench/README.md describes it to
// people.
//
//	go run ./bench -seed 1                       # the plain run of all four workloads
//	go run ./bench -seed 1 -trace 1              # the traced run: per-layer metrics, span files
//	go run ./bench -seed 1 -workload steady      # one workload, ending with the result line
//	go run ./bench -agree 5                      # five full sets; spread and widest gap per metric beside its bound
//
// It is run from the root of the repository, builds cmd/regserve into
// .bench_build/, and writes span files to bench/out/. It exits non-zero
// when a history is not regular (or, on abd, has a new/old inversion),
// when an open-loop run was issued late, and when -agree finds a spread
// wider than its bound.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

func main() {
	if os.Getenv(awakeEnv) != "" {
		spin()
	}
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name     = flag.String("workload", "", "run this workload only and end with the result line (default: all four)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same operations")
		seconds  = flag.Int("seconds", 20, "length of the measured window, divided into 5 segments of 4 windows")
		trace    = flag.Int("trace", 0, "1: the traced run (per-layer metrics, span files); 0: the plain run (end-to-end metrics)")
		agree    = flag.Int("agree", 0, "run the plain set this many times and print, per workload and metric, the spread and the widest gap beside its bound")
		regserve = flag.String("regserve", "", "regserve binary (default: build ./cmd/regserve into .bench_build/)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *agree < 0 || *agree == 1 {
		return errors.New("-seconds must be at least 1, -trace 0 or 1, -agree 0 or at least 2")
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
	}

	// One generator process, no wider than the machine: the servers share
	// its cores.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	// SIGINT and SIGTERM cancel the context, which kills the cluster.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *regserve == "" {
		*regserve = filepath.Join(".bench_build", "regserve")
		build := exec.CommandContext(ctx, "go", "build", "-o", *regserve, "./cmd/regserve")
		if out, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("building regserve (run from the root of the repository): %v\n%s", err, out)
		}
	}
	stopSpinners, err := keepAwake()
	if err != nil {
		return err
	}
	defer stopSpinners()
	o := options{
		regserve: *regserve,
		seed:     *seed,
		measured: time.Duration(*seconds) * time.Second,
		setups:   9,
		trace:    *trace == 1,
		outDir:   filepath.Join("bench", "out"),
	}
	if *agree > 0 {
		return agreement(ctx, selected, o, *agree)
	}

	var bad error
	for _, w := range selected {
		rep, err := run(ctx, w, o)
		if err != nil {
			return err
		}
		rep.print(o)
		if rep.invalid != "" {
			return fmt.Errorf("%s: invalid run: %s", w.name, rep.invalid)
		}
		if rep.verdict != nil {
			bad = fmt.Errorf("%s: the history is not correct", w.name)
		}
		if *name != "" {
			if err := rep.printResultLine(); err != nil {
				return err
			}
		}
	}
	return bad
}

// print writes the report for people: every metric by name, with its
// unit, the operation counts and the verdict.
func (r *report) print(o options) {
	kind := "plain"
	if o.trace {
		kind = "traced"
	}
	fmt.Printf("%s: %s run, seed %d: %d operations attempted, %d failed\n", r.workload, kind, o.seed, r.attempted, r.failed)
	if r.verdict == nil {
		fmt.Printf("  verdict: %s\n", r.claim)
	} else {
		fmt.Printf("  verdict: NOT %s: %v\n", r.claim, r.verdict)
	}
	for _, m := range r.metrics {
		fmt.Printf("  %-38s %14.4f %-5s", m.name, m.value, m.unit)
		if len(m.parts) > 0 {
			fmt.Printf("  %s of %.4g", m.rule, m.parts)
		}
		fmt.Println()
	}
}

// printResultLine writes the one JSON object the driver reads, as the
// last line of standard output.
func (r *report) printResultLine() error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.verdict == nil,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// agreement runs the plain set k times, each on its own seed, and prints
// for every workload and end-to-end metric the values, their spread the
// way the driver takes it (interquartile range over median), the widest
// gap between two runs (max − min over median) and the bound
// BENCHMARK.json gives the metric. A spread wider than its bound is an
// error: the driver would refuse the benchmark, and a later change could
// be rejected, or accepted, by noise alone.
func agreement(ctx context.Context, selected []workload, o options, k int) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	values := make(map[string]map[string][]float64) // workload → metric → one value per run
	var names []string
	for i := 0; i < k; i++ {
		o.seed = int64(i + 1)
		for _, w := range selected {
			rep, err := run(ctx, w, o)
			if err != nil {
				return err
			}
			if rep.invalid != "" {
				return fmt.Errorf("%s, seed %d: invalid run: %s", w.name, o.seed, rep.invalid)
			}
			if rep.verdict != nil {
				return fmt.Errorf("%s, seed %d: %v", w.name, o.seed, rep.verdict)
			}
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			first := len(names) == 0
			for _, m := range rep.metrics {
				if first {
					names = append(names, m.name)
				}
				values[w.name][m.name] = append(values[w.name][m.name], m.value)
			}
			fmt.Fprintf(os.Stderr, "set %d/%d: %s done\n", i+1, k, w.name)
		}
	}
	fmt.Printf("%d full sets (seeds 1..%d), %d s measured per run; spread = interquartile range / median, gap = (max - min) / median\n", k, k, int(o.measured.Seconds()))
	fmt.Printf("%-11s %-20s %9s %9s %7s  %s\n", "workload", "metric", "spread", "gap", "bound", "values")
	breaches := 0
	for _, w := range selected {
		for _, name := range names {
			vs := values[w.name][name]
			spread := iqr(vs) / median(vs)
			gap := (slices.Max(vs) - slices.Min(vs)) / median(vs)
			mark := ""
			if spread > bounds[name] {
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-11s %-20s %8.2f%% %8.2f%% %6.0f%%  %.4g%s\n", w.name, name, 100*spread, 100*gap, 100*bounds[name], vs, mark)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d spreads wider than their bounds", breaches)
	}
	return nil
}

// readBounds reads the regression bound of every end-to-end metric.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := make(map[string]float64, len(doc.EndToEnd))
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
