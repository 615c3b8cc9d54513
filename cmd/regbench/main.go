// Command regbench is the open-loop load generator for a churnreg
// cluster. Open-loop means arrivals come at a FIXED rate — arrival i is
// due at start + i/rate whether or not earlier operations finished — and
// every operation's latency is measured from its scheduled arrival. A
// closed-loop generator (fixed worker pool, next op after the last
// returns) silently slows its arrivals whenever the server stalls, so
// the stall never shows in the numbers: the coordinated-omission trap.
// regbench keeps the arrival process honest, which is what makes its
// p99 mean something.
//
// Drive an existing cluster through the wire-native smart client:
//
//	regbench -mode wire -seeds 127.0.0.1:7001,127.0.0.1:7002 -rate 2000 -ops 10000 -write-frac 0.1
//
// or through one node's HTTP API (the naive path — every op enters at
// that node and pays a FORWARD relay when the node does not own the key):
//
//	regbench -mode http -api 127.0.0.1:8001 -rate 2000 -ops 10000
//
// Both print an open-loop latency report (JSON) to stdout; the wire mode
// adds, on stderr, how many frames each of the client's writes carried.
//
// The comparison mode spawns its own sharded regserve cluster, runs the
// naive HTTP path and the smart wire path against it (closed-loop
// throughput legs bracketed by regserve_forward_total scrapes, then the
// open-loop latency mixes), and writes the BENCH_client.json artifact:
//
//	regbench -compare -out .
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"churnreg/client"
	"churnreg/internal/benchclient"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "regbench:", err)
		os.Exit(1)
	}
}

// benchConfig is the parsed command line.
type benchConfig struct {
	mode      string
	seeds     []string
	api       string
	rate      float64
	ops       int
	keys      int
	writeFrac float64
	seed      int64
	compare   bool
	out       string

	nodes       int
	shards      int
	replication int
	inflight    int
	duration    time.Duration
}

func parseFlags(args []string, errW io.Writer) (*benchConfig, error) {
	fs := flag.NewFlagSet("regbench", flag.ContinueOnError)
	fs.SetOutput(errW)
	var (
		mode      = fs.String("mode", "wire", "op path: wire (smart client, direct-to-shard) or http (one node's HTTP API)")
		seeds     = fs.String("seeds", "", "comma-separated wire addresses of cluster nodes (mode wire)")
		api       = fs.String("api", "", "HTTP API address of the entry node (mode http)")
		rate      = fs.Float64("rate", 1000, "open-loop arrival rate (ops/sec)")
		ops       = fs.Int("ops", 5000, "scheduled arrivals")
		keys      = fs.Int("keys", 64, "keyspace the workload spreads over")
		writeFrac = fs.Float64("write-frac", 0.1, "fraction of arrivals that are writes")
		seed      = fs.Int64("seed", 1, "workload seed")
		compare   = fs.Bool("compare", false, "spawn a sharded regserve cluster and produce BENCH_client.json (naive HTTP vs smart wire, plus open-loop mixes)")
		out       = fs.String("out", ".", "directory for BENCH_client.json (with -compare)")

		nodes       = fs.Int("nodes", 5, "cluster size (with -compare)")
		shards      = fs.Int("shards", 8, "shard count (with -compare)")
		replication = fs.Int("replication", 3, "replica group size (with -compare)")
		inflight    = fs.Int("inflight", 64, "closed-loop workers per throughput leg (with -compare)")
		duration    = fs.Duration("duration", 3*time.Second, "closed-loop leg duration (with -compare)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg := &benchConfig{
		mode: *mode, api: *api, rate: *rate, ops: *ops, keys: *keys,
		writeFrac: *writeFrac, seed: *seed, compare: *compare, out: *out,
		nodes: *nodes, shards: *shards, replication: *replication,
		inflight: *inflight, duration: *duration,
	}
	for _, s := range strings.Split(*seeds, ",") {
		if s = strings.TrimSpace(s); s != "" {
			cfg.seeds = append(cfg.seeds, s)
		}
	}
	if cfg.rate <= 0 || cfg.ops <= 0 || cfg.keys <= 0 {
		return nil, fmt.Errorf("-rate, -ops, and -keys must be > 0")
	}
	if cfg.writeFrac < 0 || cfg.writeFrac > 1 {
		return nil, fmt.Errorf("-write-frac must be in [0,1] (got %g)", cfg.writeFrac)
	}
	if !cfg.compare {
		switch cfg.mode {
		case "wire":
			if len(cfg.seeds) == 0 {
				return nil, fmt.Errorf("-mode wire needs -seeds (wire addresses of cluster nodes)")
			}
		case "http":
			if cfg.api == "" {
				return nil, fmt.Errorf("-mode http needs -api (the entry node's HTTP address)")
			}
		default:
			return nil, fmt.Errorf("unknown -mode %q (want wire or http)", cfg.mode)
		}
	}
	return cfg, nil
}

func run(args []string, out, errW io.Writer) error {
	cfg, err := parseFlags(args, errW)
	if err != nil {
		return err
	}
	if cfg.compare {
		return runCompare(cfg, out)
	}
	return runOpenLoop(cfg, out, errW)
}

// runOpenLoop fires the open-loop workload at an existing cluster and
// prints the latency report to out; in wire mode, how the client's
// connections coalesced the run goes to errW beside it.
func runOpenLoop(cfg *benchConfig, out, errW io.Writer) error {
	var do benchclient.OpFunc
	var c *client.Client
	switch cfg.mode {
	case "wire":
		var err error
		if c, err = client.Dial(client.Config{Seeds: cfg.seeds}); err != nil {
			return fmt.Errorf("dialing %v: %w", cfg.seeds, err)
		}
		defer c.Close()
		do = func(key int64, write bool) error {
			if write {
				_, err := c.Write(key, key)
				return err
			}
			_, err := c.Read(key)
			return err
		}
	case "http":
		do = httpOp(cfg.api)
	}
	res, err := benchclient.RunOpenLoop(benchclient.OpenLoopConfig{
		Rate: cfg.rate, Ops: cfg.ops, Keys: cfg.keys,
		WriteFraction: cfg.writeFrac, Seed: cfg.seed, Do: do,
	})
	if err != nil {
		return err
	}
	res.Mix = benchclient.Mix{Name: cfg.mode, WriteFraction: cfg.writeFrac}
	if c != nil {
		fmt.Fprintln(errW, framesPerFlush(c.Stats()))
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// framesPerFlush renders how many frames each conn.Write of the client
// carried: 1 means every operation paid its own write, more means
// operations issued together left together. A dialled client has flushed
// its HELLO at least.
func framesPerFlush(s client.Stats) string {
	return fmt.Sprintf("client: %d frames in %d writes, %.2f frames per flush",
		s.FramesSent, s.Flushes, float64(s.FramesSent)/float64(s.Flushes))
}

// httpOp is the naive per-op HTTP path (mode http).
func httpOp(api string) benchclient.OpFunc {
	// benchclient's comparison legs use the same construction; regbench
	// only needs the one-node entry variant.
	return benchclient.HTTPOpFunc(api)
}

// runCompare produces the full naive-vs-smart artifact.
func runCompare(cfg *benchConfig, out io.Writer) error {
	rep, err := benchclient.Run(benchclient.Config{
		Nodes: cfg.nodes, Shards: cfg.shards, Replication: cfg.replication,
		Keys: cfg.keys, Inflight: cfg.inflight, Duration: cfg.duration,
		Rate: cfg.rate, OpenOps: cfg.ops,
	})
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, "BENCH_client.json")
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	fmt.Fprintf(out, "client %-11s: %8.1f ops/sec (%d ops, %d forward relays)\n",
		rep.HTTPNaive.Mode, rep.HTTPNaive.OpsPerSec, rep.HTTPNaive.Ops, rep.HTTPNaive.ForwardRelays)
	fmt.Fprintf(out, "client %-11s: %8.1f ops/sec (%d ops, %d forward relays) — %.1fx\n",
		rep.WireDirect.Mode, rep.WireDirect.OpsPerSec, rep.WireDirect.Ops, rep.WireDirect.ForwardRelays, rep.DirectSpeedup)
	for _, ol := range rep.OpenLoop {
		fmt.Fprintf(out, "client open-loop %s (%.0f%% writes) @ %.0f/s: read p50/p95/p99 %.1f/%.1f/%.1f ms, write %.1f/%.1f/%.1f ms\n",
			ol.Mix.Name, ol.Mix.WriteFraction*100, ol.RateOpsPerSec,
			ol.ReadP50Ms, ol.ReadP95Ms, ol.ReadP99Ms,
			ol.WriteP50Ms, ol.WriteP95Ms, ol.WriteP99Ms)
	}
	return nil
}
