// Command regserve hosts ONE process of a register protocol as an OS
// daemon speaking real TCP: the deployable form of the paper's system.
// Each regserve is one p_i; a cluster is several regserve processes (on
// one machine or many) whose -peers flags point at each other. A fresh
// daemon with no -bootstrap flag enters the system exactly as the paper
// prescribes: it dials its seeds, discovers the membership, and runs the
// protocol's join operation — it serves no operation until the join
// returns.
//
// Start a three-process synchronous cluster:
//
//	regserve -id 1 -bootstrap -listen 127.0.0.1:7001 -api 127.0.0.1:8001 -n 3
//	regserve -id 2 -bootstrap -listen 127.0.0.1:7002 -api 127.0.0.1:8002 -n 3 -peers 127.0.0.1:7001
//	regserve -id 3 -bootstrap -listen 127.0.0.1:7003 -api 127.0.0.1:8003 -n 3 -peers 127.0.0.1:7001,127.0.0.1:7002
//
// Reads and writes travel on the wire protocol only: package client (or
// cmd/regbench) dials any node's -listen address, learns the membership
// from it, and sends each operation to a process that serves it locally.
// Every operation is its own pipelined entry in the node's operation
// table, so one regserve serves many in-flight reads and writes at once,
// across keys and on the same key.
//
// The HTTP address (-api) is for administration only:
//
//	curl 'localhost:8003/health'
//	curl 'localhost:8003/metrics'          # Prometheus text
//
// and grows or shrinks the system under churn:
//
//	regserve -id 4 -listen 127.0.0.1:7004 -api 127.0.0.1:8004 -n 3 -peers 127.0.0.1:7001
//	curl -X POST 'localhost:8002/leave'    # graceful departure
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"churnreg/internal/abd"
	"churnreg/internal/core"
	"churnreg/internal/esyncreg"
	"churnreg/internal/metrics"
	"churnreg/internal/nettransport"
	"churnreg/internal/placement"
	"churnreg/internal/shard"
	"churnreg/internal/sim"
	"churnreg/internal/syncreg"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "regserve:", err)
		os.Exit(1)
	}
}

// serverConfig is the parsed command line.
type serverConfig struct {
	id          int64
	listen      string
	api         string
	protocol    string
	n           int
	delta       int64
	tick        time.Duration
	bootstrap   bool
	initial     int64
	peers       []string
	verbose     bool
	shards      int
	replication int
	evictAfter  time.Duration
	pprof       bool
}

func parseFlags(args []string, errW io.Writer) (*serverConfig, error) {
	fs := flag.NewFlagSet("regserve", flag.ContinueOnError)
	fs.SetOutput(errW)
	var (
		id          = fs.Int64("id", 0, "unique process id (> 0; never reuse an id)")
		listen      = fs.String("listen", "127.0.0.1:0", "TCP address for protocol traffic")
		api         = fs.String("api", "127.0.0.1:0", "HTTP address for /health, /metrics and /leave")
		protocol    = fs.String("protocol", "sync", "protocol: sync, esync, or abd")
		n           = fs.Int("n", 3, "constant system size n known to every process")
		delta       = fs.Int64("delta", 50, "communication bound δ (ticks)")
		tick        = fs.Duration("tick", time.Millisecond, "real duration of one tick (δ×tick must exceed network+scheduler slop)")
		bootstrap   = fs.Bool("bootstrap", false, "one of the n initial processes (active at once, holds the initial value)")
		initial     = fs.Int64("initial", 0, "register 0's initial value (bootstrap only)")
		peers       = fs.String("peers", "", "comma-separated seed addresses to dial")
		verbose     = fs.Bool("v", false, "log transport events to stderr")
		shards      = fs.Int("shards", 0, "shard the keyspace into this many shards (0 = every node replicates every key); must match across the whole system")
		replication = fs.Int("replication", 3, "replica group size per shard (with -shards; must match across the whole system)")
		evictAfter  = fs.Duration("evict-after", 15*time.Second, "drop a peer whose dials have failed continuously for this long (sharded clusters under churn want this low — placement heals only after eviction)")
		pprofFlag   = fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof on the API address (profiling a live cluster)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *id <= 0 {
		return nil, fmt.Errorf("-id must be > 0 (got %d): ids identify processes for the whole system lifetime", *id)
	}
	if *n <= 0 {
		return nil, fmt.Errorf("-n must be > 0 (got %d)", *n)
	}
	if *delta < 1 {
		return nil, fmt.Errorf("-delta must be >= 1 (got %d)", *delta)
	}
	if *shards < 0 {
		return nil, fmt.Errorf("-shards must be >= 0 (got %d)", *shards)
	}
	if *shards > 0 && *replication < 1 {
		return nil, fmt.Errorf("-replication must be >= 1 (got %d)", *replication)
	}
	if *protocol == "multiwriter" {
		return nil, fmt.Errorf("-protocol multiwriter is not served: nothing on the wire protocol acquires its §7 write token, so every write would be refused")
	}
	cfg := &serverConfig{
		id: *id, listen: *listen, api: *api, protocol: *protocol,
		n: *n, delta: *delta, tick: *tick, bootstrap: *bootstrap,
		initial: *initial, verbose: *verbose,
		shards: *shards, replication: *replication, evictAfter: *evictAfter, pprof: *pprofFlag,
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cfg.peers = append(cfg.peers, p)
		}
	}
	if _, err := factoryFor(cfg.protocol); err != nil {
		return nil, err
	}
	return cfg, nil
}

// factoryFor resolves the protocol factory, always wrapped in the
// sharding layer: the wrapper is what understands FORWARD operations, and
// wire clients submit every operation as a FORWARD — so even an unsharded
// node needs it (with no placement the wrapper serves every key locally,
// adding nothing but the client-serving path).
func factoryFor(protocol string) (core.NodeFactory, error) {
	var f core.NodeFactory
	switch protocol {
	case "sync":
		f = syncreg.Factory(syncreg.Options{})
	case "esync":
		f = esyncreg.Factory(esyncreg.Options{})
	case "abd":
		f = abd.Factory()
	default:
		return nil, fmt.Errorf("unknown protocol %q (want sync, esync, or abd)", protocol)
	}
	return shard.Factory(f), nil
}

func run(args []string, out, errW io.Writer) error {
	cfg, err := parseFlags(args, errW)
	if err != nil {
		return err
	}
	factory, err := factoryFor(cfg.protocol)
	if err != nil {
		return err
	}
	logf := func(string, ...any) {}
	if cfg.verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(errW, format+"\n", a...) }
	}
	tr, err := nettransport.New(nettransport.Config{
		ID:         core.ProcessID(cfg.id),
		ListenAddr: cfg.listen,
		N:          cfg.n,
		Delta:      sim.Duration(cfg.delta),
		Tick:       cfg.tick,
		Factory:    factory,
		Bootstrap:  cfg.bootstrap,
		Initial:    core.VersionedValue{Val: core.Value(cfg.initial), SN: 0},
		EvictAfter: cfg.evictAfter,
		Placement:  placement.Config{Shards: cfg.shards, Replication: cfg.replication},
		Logf:       logf,
	})
	if err != nil {
		return err
	}
	apiLn, err := net.Listen("tcp", cfg.api)
	if err != nil {
		tr.Close()
		return fmt.Errorf("api listen %s: %w", cfg.api, err)
	}

	// The one parseable line scripts and the e2e suite wait for: the
	// actually-bound addresses (the flags may have asked for :0).
	fmt.Fprintf(out, "REGSERVE id=%d listen=%s api=%s protocol=%s bootstrap=%v\n",
		cfg.id, tr.Addr(), apiLn.Addr(), cfg.protocol, cfg.bootstrap)

	tr.Start(cfg.peers)

	leavec := make(chan struct{}, 1)
	srv := &http.Server{Handler: newAPI(cfg, tr, leavec)}
	httpDone := make(chan error, 1)
	go func() { httpDone <- srv.Serve(apiLn) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	select {
	case sig := <-sigc:
		fmt.Fprintf(errW, "regserve %d: %v, leaving gracefully\n", cfg.id, sig)
	case <-leavec:
		fmt.Fprintf(errW, "regserve %d: leave requested via API\n", cfg.id)
	case err := <-httpDone:
		tr.Close()
		return fmt.Errorf("http server: %w", err)
	}
	tr.Leave()
	srv.Close()
	return nil
}

// backend is the slice of the transport the admin HTTP layer reads — an
// interface so handler tests exercise the API against a fake without
// binding sockets. *nettransport.Transport is the production
// implementation.
type backend interface {
	Invoke(fn func(core.Node)) error
	Active() bool
	PeerCount() int
	Addr() string
	// ShardInfo reports (total shards, shards this node replicates,
	// replication factor); total is 0 when the keyspace is unsharded.
	ShardInfo() (shards, owned, replication int)
	// Stats exposes the transport's wire-level counters (coalescing
	// factor, batch gauge, queue drops, monitor stalls) for /metrics.
	Stats() *nettransport.Stats
}

var _ backend = (*nettransport.Transport)(nil)

// api serves the node's administration over HTTP: its health, its
// metrics, and a graceful leave. Register operations are not served here.
type api struct {
	cfg    *serverConfig
	tr     backend
	leavec chan<- struct{}
}

func newAPI(cfg *serverConfig, tr backend, leavec chan<- struct{}) http.Handler {
	a := &api{cfg: cfg, tr: tr, leavec: leavec}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /health", a.health)
	mux.HandleFunc("POST /leave", a.leave)
	mux.HandleFunc("GET /metrics", a.metrics)
	if cfg.pprof {
		// Explicit registration: the API uses its own mux, so the
		// net/http/pprof package's DefaultServeMux handlers never apply.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// metrics serves the Prometheus text exposition of series.
func (a *api) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	metrics.WriteText(w, a.series())
}

// series is every series /metrics exports, in the order it prints: the one
// place their names, HELP texts and types are declared. bench/ scrapes
// them, so a name or a number format changes only with its golden file.
// The transport's counters come first; then the counters that live on the
// node (the quorum-read split and the shard wrapper's relay hops), both
// omitted when the node does not answer within 2 s; then, when the
// keyspace is sharded, the placement gauges.
func (a *api) series() []metrics.Series {
	st := a.tr.Stats()
	out := []metrics.Series{
		metrics.Gauge("regserve_transport_frames_per_write", "Average frames coalesced into one frame-carrying write syscall.", metrics.Float(st.FramesPerWrite())),
		metrics.Gauge("regserve_transport_last_batch_frames", "Frame count of the most recently flushed batch.", metrics.Int(st.LastBatchFrames.Load())),
		metrics.Counter("regserve_transport_flushed_frames_total", "Frames written to peers and client sessions by coalesced flushes.", metrics.Int(st.FlushedFrames.Load())),
		metrics.Counter("regserve_transport_mailbox_stalls_total", "Producers (connection readers, timers, API calls) that found the node's monitor held and waited for it.", metrics.Int(st.MailboxStalls.Load())),
		metrics.Counter("regserve_transport_queue_drops_total", "Frames dropped, oldest first, on full per-link queues.", metrics.Int(st.QueueDrops.Load())),
		metrics.Counter("regserve_transport_loop_turns_total", "Turns of the node's monitor; each link that got frames in a turn is flushed once at its end.", metrics.Int(st.LoopTurns.Load())),
		metrics.Counter("regserve_transport_loop_tasks_total", "Tasks (frames, timers, API calls) the monitor's turns ran; tasks per turn is the batching a turn achieves.", metrics.Int(st.LoopTasks.Load())),
		metrics.Counter("regserve_transport_self_deliveries_total", "Messages the node addressed to itself, delivered within the turn that sent them.", metrics.Int(st.SelfDeliveries.Load())),
		metrics.Counter("regserve_transport_inline_flushes_total", "Non-blocking writes made at the end of a turn by the goroutine that ran it.", metrics.Int(st.InlineFlushes.Load())),
		metrics.Counter("regserve_transport_flush_handoffs_total", "Inline flushes the socket cut short or refused; the link's writer took the remainder.", metrics.Int(st.FlushHandoffs.Load())),
		metrics.Counter("regserve_transport_timer_fires_total", "Protocol timer callbacks (wait(δ) and the like) run by the node.", metrics.Int(st.TimerFires.Load())),
		metrics.Counter("regserve_transport_timer_late_seconds_total", "Summed lateness of timer callbacks: when each one's turn began, minus its deadline.", metrics.Float(float64(st.TimerLateNanos.Load())/1e9)),
		metrics.Counter("regserve_transport_timer_overruns_total", "Timer callbacks that began more than delta past their deadline: this process stalled past delta.", metrics.Int(st.TimerOverruns.Load())),
	}
	if c := a.readNodeCounts(); c != nil {
		out = append(out,
			metrics.Counter("regserve_read_path_total", "Completed quorum reads by path: fast is the one-round path (all phase-1 replies agreed, write-back skipped).", metrics.Int(c.fast, "path", "fast"), metrics.Int(c.slow, "path", "slow")),
			// Under a placement-aware client, which routes every operation
			// to a replica itself, regserve_forward_total stays ≈0.
			metrics.Counter("regserve_forward_total", "Operations relayed to a replica instead of served from this node's local state.", metrics.Int(c.fwd.ForwardedReads, "op", "read")),
			metrics.Counter("regserve_forward_served_total", "Forwarded operations this node served from local state (relayed by a peer or submitted by a wire client).", metrics.Int(c.fwd.ForwardsServed)),
			metrics.Counter("regserve_forward_refused_total", "Forwarded operations this node refused (wrong replica, not active, or busy).", metrics.Int(c.fwd.ForwardsRefused)),
		)
	}
	if shards, owned, repl := a.tr.ShardInfo(); shards > 0 {
		out = append(out,
			metrics.Gauge("regserve_shards_total", "Total shards the keyspace hashes onto.", metrics.Int(uint64(shards))),
			metrics.Gauge("regserve_shards_owned", "Shards this node currently replicates.", metrics.Int(uint64(owned))),
			metrics.Gauge("regserve_shard_replication", "Configured replica group size per shard.", metrics.Int(uint64(repl))),
		)
	}
	return out
}

// nodeCounters is the slice of the node that /metrics reads: the
// quorum-read split and the shard wrapper's relay counters. *shard.Node,
// the outermost layer of every regserve node, implements it; handler
// tests stub it.
type nodeCounters interface {
	core.ReadPathCounter
	Stats() shard.Stats
}

// nodeCounts is what one scrape reads from the node.
type nodeCounts struct {
	fast, slow uint64
	fwd        shard.Stats
}

// readNodeCounts reads the node's counters in one turn of its monitor. It
// returns nil when the node did not answer within 2 s (or has stopped):
// a node too busy to answer promptly omits those series this scrape.
func (a *api) readNodeCounts() *nodeCounts {
	done := make(chan *nodeCounts, 1)
	// The timeout must bound the WHOLE fetch, including Invoke's wait for
	// the monitor, so Invoke runs on its own goroutine; its send is
	// buffered and its wait ends when the transport stops, so the
	// goroutine never outlives a busy node by more than that.
	go func() {
		var c *nodeCounts
		a.tr.Invoke(func(n core.Node) {
			if nc, ok := n.(nodeCounters); ok {
				c = &nodeCounts{fwd: nc.Stats()}
				c.fast, c.slow = nc.ReadPathCounts()
			}
		})
		done <- c
	}()
	select {
	case c := <-done:
		return c
	case <-time.After(2 * time.Second):
		return nil
	}
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (a *api) health(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"id":       a.cfg.id,
		"protocol": a.cfg.protocol,
		"active":   a.tr.Active(),
		"peers":    a.tr.PeerCount(),
		"addr":     a.tr.Addr(),
	}
	if shards, owned, repl := a.tr.ShardInfo(); shards > 0 {
		out["shards"] = shards
		out["shards_owned"] = owned
		out["replication"] = repl
	}
	reply(w, out)
}

func (a *api) leave(w http.ResponseWriter, r *http.Request) {
	reply(w, map[string]any{"ok": true, "leaving": true})
	select {
	case a.leavec <- struct{}{}:
	default:
	}
}
