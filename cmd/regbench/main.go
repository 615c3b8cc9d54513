//go:build linux

// Command regbench drives a live churnreg cluster open loop through one wire
// client with the benchmark's generator (bench/loadgen). Latency counts from
// each operation's scheduled arrival, so a stall shows as latency. Stdout gets
// a JSON report, stderr the client's frames per write; SIGINT stops arrivals.
//
//	regbench -seeds 127.0.0.1:7001,127.0.0.1:7002 -rate 2000 -ops 10000 -write-frac 0.1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"churnreg/bench/loadgen"
	"churnreg/client"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "regbench:", err)
		os.Exit(1)
	}
}

type benchConfig struct {
	seeds []string
	ops   int
	seed  int64
	mix   loadgen.Mix
}

func parseFlags(args []string, errW io.Writer) (*benchConfig, error) {
	fs := flag.NewFlagSet("regbench", flag.ContinueOnError)
	fs.SetOutput(errW)
	cfg := &benchConfig{}
	seeds := fs.String("seeds", "", "comma-separated wire addresses of cluster nodes (required)")
	fs.Float64Var(&cfg.mix.Rate, "rate", 1000, "open-loop arrival rate (ops/sec)")
	fs.IntVar(&cfg.ops, "ops", 5000, "scheduled arrivals")
	fs.IntVar(&cfg.mix.Keys, "keys", 64, "keyspace the workload spreads over")
	fs.Float64Var(&cfg.mix.WriteFrac, "write-frac", 0.1, "fraction of arrivals that are writes")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if cfg.seeds = strings.FieldsFunc(*seeds, func(r rune) bool { return r == ',' || r == ' ' }); len(cfg.seeds) == 0 {
		return nil, fmt.Errorf("-seeds is required (wire addresses of cluster nodes)")
	}
	if m := cfg.mix; m.Rate <= 0 || cfg.ops <= 0 || m.Keys <= 0 || m.WriteFrac < 0 || m.WriteFrac > 1 {
		return nil, fmt.Errorf("-rate, -ops and -keys must be > 0 and -write-frac in [0,1]")
	}
	return cfg, nil
}

func run(ctx context.Context, args []string, out, errW io.Writer) error {
	cfg, err := parseFlags(args, errW)
	if err != nil {
		return err
	}
	c, err := client.Dial(client.Config{Seeds: cfg.seeds})
	if err != nil {
		return fmt.Errorf("dialing %v: %w", cfg.seeds, err)
	}
	defer c.Close()
	plan := loadgen.Plan(cfg.seed, cfg.ops, cfg.mix)
	spans := loadgen.RunOpen(ctx, time.Now(), plan, func(key int64, write bool, val int64) (int64, int64, error) {
		if write {
			v, err := c.Write(key, val)
			return v.Val, v.SN, err
		}
		v, err := c.Read(key)
		return v.Val, v.SN, err
	})
	fmt.Fprintln(errW, framesPerFlush(c.Stats()))
	return json.NewEncoder(out).Encode(summarize(cfg.mix.Rate, spans))
}

// summarize reports one open-loop run. A latency runs from the scheduled arrival
// to the return; a failed operation counts in "errors" and in no percentile.
func summarize(rate float64, spans []loadgen.Span) map[string]any {
	errs, secs, lat := 0, 0.0, map[bool][]time.Duration{}
	for _, sp := range spans {
		if secs = max(secs, sp.Ret.Seconds()); sp.Err != nil {
			errs++
		} else {
			lat[sp.Write] = append(lat[sp.Write], sp.Ret-sp.Sched)
		}
	}
	r := map[string]any{"rate_ops_per_sec": rate, "ops": len(spans), "errors": errs, "seconds": secs}
	for write, class := range map[bool]string{false: "read", true: "write"} {
		l := lat[write]
		slices.Sort(l)
		for _, q := range []int{50, 95, 99} {
			ms := 0.0 // no operation of the class
			if len(l) > 0 {
				ms = float64(l[q*(len(l)-1)/100]) / float64(time.Millisecond)
			}
			r[fmt.Sprintf("%s_p%d_ms", class, q)] = ms
		}
	}
	return r
}

// framesPerFlush renders how many frames each conn.Write of the client
// carried: 1 means every operation paid its own write, more that they shared.
func framesPerFlush(s client.Stats) string {
	return fmt.Sprintf("client: %d frames in %d writes, %.2f frames per flush",
		s.FramesSent, s.Flushes, float64(s.FramesSent)/float64(s.Flushes))
}
