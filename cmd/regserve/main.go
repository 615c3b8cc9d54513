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
// then talk to any node's HTTP API:
//
//	curl -X POST 'localhost:8001/write?key=0&val=42'
//	curl 'localhost:8002/read?key=0'
//	curl -X POST 'localhost:8001/writebatch?b=1=10,2=20,3=30'
//	curl 'localhost:8003/health'
//
// and grow the system under churn:
//
//	regserve -id 4 -listen 127.0.0.1:7004 -api 127.0.0.1:8004 -n 3 -peers 127.0.0.1:7001
//	curl -X POST 'localhost:8002/leave'    # graceful departure
//
// The HTTP handlers are genuinely concurrent: every request is its own
// pipelined operation on the node (the protocols run an operation table,
// not a single pending slot), so one regserve serves many in-flight
// reads and writes at once — across keys and on the same key. The write
// discipline that remains is the paper's, per key ACROSS nodes: do not
// write one key through two different nodes concurrently (one writing
// client per key, coordination above the API, or -protocol multiwriter,
// which serializes writers with the §7 token). Operational visibility
// lives on /metrics (Prometheus text): per-key in-flight gauges and
// read/write latency histograms.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"churnreg/internal/abd"
	"churnreg/internal/core"
	"churnreg/internal/esyncreg"
	"churnreg/internal/metrics"
	"churnreg/internal/multiwriter"
	"churnreg/internal/nettransport"
	"churnreg/internal/nodeops"
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
	opTimeout   time.Duration
	verbose     bool
	shards      int
	replication int
	evictAfter  time.Duration
	queueLen    int
	pprof       bool
}

func parseFlags(args []string, errW io.Writer) (*serverConfig, error) {
	fs := flag.NewFlagSet("regserve", flag.ContinueOnError)
	fs.SetOutput(errW)
	var (
		id          = fs.Int64("id", 0, "unique process id (> 0; never reuse an id)")
		listen      = fs.String("listen", "127.0.0.1:0", "TCP address for protocol traffic")
		api         = fs.String("api", "127.0.0.1:0", "HTTP address for the client API")
		protocol    = fs.String("protocol", "sync", "protocol: sync, esync, abd, or multiwriter")
		n           = fs.Int("n", 3, "constant system size n known to every process")
		delta       = fs.Int64("delta", 50, "communication bound δ (ticks)")
		tick        = fs.Duration("tick", time.Millisecond, "real duration of one tick (δ×tick must exceed network+scheduler slop)")
		bootstrap   = fs.Bool("bootstrap", false, "one of the n initial processes (active at once, holds the initial value)")
		initial     = fs.Int64("initial", 0, "register 0's initial value (bootstrap only)")
		peers       = fs.String("peers", "", "comma-separated seed addresses to dial")
		opTimeout   = fs.Duration("op-timeout", 10*time.Second, "client API operation deadline")
		verbose     = fs.Bool("v", false, "log transport events to stderr")
		shards      = fs.Int("shards", 0, "shard the keyspace into this many shards (0 = every node replicates every key); must match across the whole system")
		replication = fs.Int("replication", 3, "replica group size per shard (with -shards; must match across the whole system)")
		evictAfter  = fs.Duration("evict-after", 15*time.Second, "drop a peer whose dials have failed continuously for this long (sharded clusters under churn want this low — placement heals only after eviction)")
		queueLen    = fs.Int("queue", 0, "per-peer outbound frame queue capacity (0 = transport default of 512); overflow drops the oldest frame")
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
	if *shards > 0 && *protocol == "multiwriter" {
		// The §7 token makes ONE process the writer for every key at a
		// time; sharding routes each key's writes to its own shard
		// primary. The two write-authority models contradict each other.
		return nil, fmt.Errorf("-shards is not supported with -protocol multiwriter (the global write token and per-shard primaries are competing write authorities)")
	}
	cfg := &serverConfig{
		id: *id, listen: *listen, api: *api, protocol: *protocol,
		n: *n, delta: *delta, tick: *tick, bootstrap: *bootstrap,
		initial: *initial, opTimeout: *opTimeout, verbose: *verbose,
		shards: *shards, replication: *replication, evictAfter: *evictAfter,
		queueLen: *queueLen, pprof: *pprofFlag,
	}
	if cfg.queueLen < 0 {
		return nil, fmt.Errorf("-queue must be >= 0 (got %d)", cfg.queueLen)
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
	case "multiwriter":
		f = multiwriter.Factory()
	default:
		return nil, fmt.Errorf("unknown protocol %q (want sync, esync, abd, or multiwriter)", protocol)
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
		QueueLen:   cfg.queueLen,
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

// backend is the slice of the transport the HTTP layer drives — an
// interface so handler tests exercise the API against a fake without
// binding sockets. *nettransport.Transport is the production
// implementation.
type backend interface {
	ReadKey(reg core.RegisterID, timeout time.Duration) (core.VersionedValue, error)
	// ReadKeyServed also names the process that served the read (this
	// one, or the replica a sharded node forwarded to).
	ReadKeyServed(reg core.RegisterID, timeout time.Duration) (core.VersionedValue, core.ProcessID, error)
	WriteKey(reg core.RegisterID, v core.Value, timeout time.Duration) (core.VersionedValue, error)
	WriteBatch(entries []core.KeyedWrite, timeout time.Duration) ([]core.KeyedValue, error)
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

// api serves the client operations over HTTP. Handlers run concurrently
// (net/http gives each request a goroutine) and the backend pipelines
// every call as its own node operation; the api itself keeps no
// operation state beyond metrics.
type api struct {
	cfg    *serverConfig
	tr     backend
	ops    *metrics.OpMetrics
	leavec chan<- struct{}
}

func newAPI(cfg *serverConfig, tr backend, leavec chan<- struct{}) http.Handler {
	a := &api{cfg: cfg, tr: tr, ops: metrics.NewOpMetrics(), leavec: leavec}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /health", a.health)
	mux.HandleFunc("GET /read", a.read)
	mux.HandleFunc("POST /write", a.write)
	mux.HandleFunc("POST /writebatch", a.writeBatch)
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

// metrics serves the Prometheus text exposition: per-key in-flight
// gauges, per-operation latency histograms, and — when the keyspace is
// sharded — the placement gauges (total shards, shards this node
// replicates, configured replication factor).
func (a *api) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	a.ops.WritePrometheus(w)
	a.writeTransportMetrics(w)
	a.writeReadPathMetrics(w)
	a.writeForwardMetrics(w)
	shards, owned, repl := a.tr.ShardInfo()
	if shards == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP regserve_shards_total Total shards the keyspace hashes onto.\n")
	fmt.Fprintf(w, "# TYPE regserve_shards_total gauge\n")
	fmt.Fprintf(w, "regserve_shards_total %d\n", shards)
	fmt.Fprintf(w, "# HELP regserve_shards_owned Shards this node currently replicates.\n")
	fmt.Fprintf(w, "# TYPE regserve_shards_owned gauge\n")
	fmt.Fprintf(w, "regserve_shards_owned %d\n", owned)
	fmt.Fprintf(w, "# HELP regserve_shard_replication Configured replica group size per shard.\n")
	fmt.Fprintf(w, "# TYPE regserve_shard_replication gauge\n")
	fmt.Fprintf(w, "regserve_shard_replication %d\n", repl)
}

// writeTransportMetrics renders the wire-level hot-path counters: the
// coalescing factor (frames per frame-carrying write syscall), the latest
// batch size, the backpressure counters, the monitor's turns and flushes,
// and how late its timers fire.
func (a *api) writeTransportMetrics(w http.ResponseWriter) {
	st := a.tr.Stats()
	if st == nil {
		return
	}
	fmt.Fprintf(w, "# HELP regserve_transport_frames_per_write Average frames coalesced into one frame-carrying write syscall.\n")
	fmt.Fprintf(w, "# TYPE regserve_transport_frames_per_write gauge\n")
	fmt.Fprintf(w, "regserve_transport_frames_per_write %g\n", st.FramesPerWrite())
	fmt.Fprintf(w, "# HELP regserve_transport_last_batch_frames Frame count of the most recently flushed batch.\n")
	fmt.Fprintf(w, "# TYPE regserve_transport_last_batch_frames gauge\n")
	fmt.Fprintf(w, "regserve_transport_last_batch_frames %d\n", st.LastBatchFrames.Load())
	fmt.Fprintf(w, "# HELP regserve_transport_flushed_frames_total Frames written to peers and client sessions by coalesced flushes.\n")
	fmt.Fprintf(w, "# TYPE regserve_transport_flushed_frames_total counter\n")
	fmt.Fprintf(w, "regserve_transport_flushed_frames_total %d\n", st.FlushedFrames.Load())
	fmt.Fprintf(w, "# HELP regserve_transport_mailbox_stalls_total Producers (connection readers, timers, API calls) that found the node's monitor held and waited for it.\n")
	fmt.Fprintf(w, "# TYPE regserve_transport_mailbox_stalls_total counter\n")
	fmt.Fprintf(w, "regserve_transport_mailbox_stalls_total %d\n", st.MailboxStalls.Load())
	fmt.Fprintf(w, "# HELP regserve_transport_queue_drops_total Frames dropped, oldest first, on full per-link queues.\n")
	fmt.Fprintf(w, "# TYPE regserve_transport_queue_drops_total counter\n")
	fmt.Fprintf(w, "regserve_transport_queue_drops_total %d\n", st.QueueDrops.Load())
	fmt.Fprintf(w, "# HELP regserve_transport_loop_turns_total Turns of the node's monitor; each link that got frames in a turn is flushed once at its end.\n")
	fmt.Fprintf(w, "# TYPE regserve_transport_loop_turns_total counter\n")
	fmt.Fprintf(w, "regserve_transport_loop_turns_total %d\n", st.LoopTurns.Load())
	fmt.Fprintf(w, "# HELP regserve_transport_loop_tasks_total Tasks (frames, timers, API calls) the monitor's turns ran; tasks per turn is the batching a turn achieves.\n")
	fmt.Fprintf(w, "# TYPE regserve_transport_loop_tasks_total counter\n")
	fmt.Fprintf(w, "regserve_transport_loop_tasks_total %d\n", st.LoopTasks.Load())
	fmt.Fprintf(w, "# HELP regserve_transport_self_deliveries_total Messages the node addressed to itself, delivered within the turn that sent them.\n")
	fmt.Fprintf(w, "# TYPE regserve_transport_self_deliveries_total counter\n")
	fmt.Fprintf(w, "regserve_transport_self_deliveries_total %d\n", st.SelfDeliveries.Load())
	fmt.Fprintf(w, "# HELP regserve_transport_inline_flushes_total Non-blocking writes made at the end of a turn by the goroutine that ran it.\n")
	fmt.Fprintf(w, "# TYPE regserve_transport_inline_flushes_total counter\n")
	fmt.Fprintf(w, "regserve_transport_inline_flushes_total %d\n", st.InlineFlushes.Load())
	fmt.Fprintf(w, "# HELP regserve_transport_flush_handoffs_total Inline flushes the socket cut short or refused; the link's writer took the remainder.\n")
	fmt.Fprintf(w, "# TYPE regserve_transport_flush_handoffs_total counter\n")
	fmt.Fprintf(w, "regserve_transport_flush_handoffs_total %d\n", st.FlushHandoffs.Load())
	fmt.Fprintf(w, "# HELP regserve_transport_timer_fires_total Protocol timer callbacks (wait(δ) and the like) run by the node.\n")
	fmt.Fprintf(w, "# TYPE regserve_transport_timer_fires_total counter\n")
	fmt.Fprintf(w, "regserve_transport_timer_fires_total %d\n", st.TimerFires.Load())
	fmt.Fprintf(w, "# HELP regserve_transport_timer_late_seconds_total Summed lateness of timer callbacks: when each one's turn began, minus its deadline.\n")
	fmt.Fprintf(w, "# TYPE regserve_transport_timer_late_seconds_total counter\n")
	fmt.Fprintf(w, "regserve_transport_timer_late_seconds_total %g\n", float64(st.TimerLateNanos.Load())/1e9)
	fmt.Fprintf(w, "# HELP regserve_transport_timer_overruns_total Timer callbacks that began more than delta past their deadline: this process stalled past delta.\n")
	fmt.Fprintf(w, "# TYPE regserve_transport_timer_overruns_total counter\n")
	fmt.Fprintf(w, "regserve_transport_timer_overruns_total %d\n", st.TimerOverruns.Load())
}

// writeReadPathMetrics renders the quorum-read fast/slow split for
// protocols that track it (abd's one-round fast path). The counts live on
// the node, so they are fetched through one turn of its monitor; a node
// too busy to answer promptly just omits the series this scrape.
func (a *api) writeReadPathMetrics(w http.ResponseWriter) {
	type counts struct {
		fast, slow uint64
		tracked    bool
	}
	done := make(chan counts, 1)
	// The timeout must bound the WHOLE fetch, including Invoke's wait for
	// the monitor, so Invoke runs on its own goroutine; its channel send
	// is buffered and its wait ends when the transport stops, so the
	// goroutine never outlives a busy node by more than that.
	go func() {
		err := a.tr.Invoke(func(n core.Node) {
			c, ok := n.(core.ReadPathCounter)
			if !ok {
				done <- counts{}
				return
			}
			fast, slow := c.ReadPathCounts()
			done <- counts{fast: fast, slow: slow, tracked: true}
		})
		if err != nil {
			done <- counts{}
		}
	}()
	timer := time.NewTimer(2 * time.Second)
	defer timer.Stop()
	select {
	case c := <-done:
		if !c.tracked {
			return
		}
		fmt.Fprintf(w, "# HELP regserve_read_path_total Completed quorum reads by path: fast is the one-round path (all phase-1 replies agreed, write-back skipped).\n")
		fmt.Fprintf(w, "# TYPE regserve_read_path_total counter\n")
		fmt.Fprintf(w, "regserve_read_path_total{path=\"fast\"} %d\n", c.fast)
		fmt.Fprintf(w, "regserve_read_path_total{path=\"slow\"} %d\n", c.slow)
	case <-timer.C:
	}
}

// forwardCounter is the slice of the shard wrapper the forward-relay
// series needs. *shard.Node implements it; handler tests stub it.
type forwardCounter interface {
	Stats() shard.Stats
}

// writeForwardMetrics renders the relay-hop counters: operations this
// node could not serve locally and forwarded to a replica (the cost a
// placement-aware client avoids by routing direct — under a smart client
// regserve_forward_total stays ≈0), plus the receiving side (forwards
// this node served or refused). Fetched through one turn of the monitor
// like the read-path series.
func (a *api) writeForwardMetrics(w http.ResponseWriter) {
	done := make(chan *shard.Stats, 1)
	go func() {
		err := a.tr.Invoke(func(n core.Node) {
			if fc, ok := n.(forwardCounter); ok {
				s := fc.Stats()
				done <- &s
				return
			}
			done <- nil
		})
		if err != nil {
			done <- nil
		}
	}()
	timer := time.NewTimer(2 * time.Second)
	defer timer.Stop()
	select {
	case s := <-done:
		if s == nil {
			return
		}
		fmt.Fprintf(w, "# HELP regserve_forward_total Operations relayed to a replica instead of served from this node's local state.\n")
		fmt.Fprintf(w, "# TYPE regserve_forward_total counter\n")
		fmt.Fprintf(w, "regserve_forward_total{op=\"read\"} %d\n", s.ForwardedReads)
		fmt.Fprintf(w, "regserve_forward_total{op=\"write\"} %d\n", s.ForwardedWrites)
		fmt.Fprintf(w, "# HELP regserve_forward_served_total Forwarded operations this node served from local state (relayed by a peer or submitted by a wire client).\n")
		fmt.Fprintf(w, "# TYPE regserve_forward_served_total counter\n")
		fmt.Fprintf(w, "regserve_forward_served_total %d\n", s.ForwardsServed)
		fmt.Fprintf(w, "# HELP regserve_forward_refused_total Forwarded operations this node refused (wrong replica, not active, or busy).\n")
		fmt.Fprintf(w, "# TYPE regserve_forward_refused_total counter\n")
		fmt.Fprintf(w, "regserve_forward_refused_total %d\n", s.ForwardsRefused)
	case <-timer.C:
	}
}

func (a *api) reply(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// replyErr maps operation errors onto HTTP statuses: not-yet-joined and
// per-key op-in-progress are client-visible protocol states, a deadline
// miss is an upstream timeout.
func (a *api) replyErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, core.ErrNotActive):
		status = http.StatusServiceUnavailable
	case errors.Is(err, core.ErrOpInProgress):
		status = http.StatusConflict
	case errors.Is(err, nodeops.ErrTimeout):
		status = http.StatusGatewayTimeout
	case errors.Is(err, multiwriter.ErrNotHolder):
		status = http.StatusServiceUnavailable
	case errors.Is(err, core.ErrUnroutable):
		// No replica of the key's shard reachable right now; the
		// operation was NOT applied — clients may retry.
		status = http.StatusServiceUnavailable
	case errors.Is(err, core.ErrUnacknowledged):
		// A forwarded write went unanswered: it MAY have been applied.
		// 502 (not 504): the upstream replica, not this node, went dark,
		// and the ambiguity is the client's to resolve.
		status = http.StatusBadGateway
	}
	a.reply(w, status, map[string]string{"error": err.Error()})
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
	a.reply(w, http.StatusOK, out)
}

func (a *api) read(w http.ResponseWriter, r *http.Request) {
	key, err := keyParam(r)
	if err != nil {
		a.reply(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	done := a.ops.Begin("read", int64(key))
	v, server, err := a.tr.ReadKeyServed(key, a.cfg.opTimeout)
	done()
	if err != nil {
		a.replyErr(w, err)
		return
	}
	// served_by names the replica whose local copy produced the value —
	// this node, or the group member a sharded node forwarded to. Chaos
	// clients record it so history attribution survives forwarding.
	a.reply(w, http.StatusOK, map[string]any{
		"key": int64(key), "val": int64(v.Val), "sn": int64(v.SN), "served_by": int64(server),
	})
}

func (a *api) write(w http.ResponseWriter, r *http.Request) {
	key, err := keyParam(r)
	if err != nil {
		a.reply(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	val, err := strconv.ParseInt(r.URL.Query().Get("val"), 10, 64)
	if err != nil {
		a.reply(w, http.StatusBadRequest, map[string]string{"error": "val must be an integer"})
		return
	}
	if err := a.ensureToken(); err != nil {
		a.replyErr(w, err)
		return
	}
	done := a.ops.Begin("write", int64(key))
	vv, err := a.tr.WriteKey(key, core.Value(val), a.cfg.opTimeout)
	done()
	if err != nil {
		a.replyErr(w, err)
		return
	}
	// Report the sequence number the protocol assigned TO THIS WRITE —
	// carried back through the operation table, so it is exact even with
	// several writes to this key in flight (a snapshot here could reflect
	// a later pipelined write).
	a.reply(w, http.StatusOK, map[string]any{"ok": true, "key": int64(key), "val": val, "sn": int64(vv.SN)})
}

func (a *api) writeBatch(w http.ResponseWriter, r *http.Request) {
	entries, err := parseBatch(r.URL.Query().Get("b"))
	if err != nil {
		a.reply(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if err := a.ensureToken(); err != nil {
		a.replyErr(w, err)
		return
	}
	dones := make([]func(), len(entries))
	for i, e := range entries {
		dones[i] = a.ops.Begin("write", int64(e.Reg))
	}
	kvs, err := a.tr.WriteBatch(entries, a.cfg.opTimeout)
	for _, done := range dones {
		done()
	}
	if err != nil {
		a.replyErr(w, err)
		return
	}
	sns := make(map[string]int64, len(kvs))
	for _, kv := range kvs {
		sns[strconv.FormatInt(int64(kv.Reg), 10)] = int64(kv.Value.SN)
	}
	a.reply(w, http.StatusOK, map[string]any{"ok": true, "keys": len(entries), "sns": sns})
}

func (a *api) leave(w http.ResponseWriter, r *http.Request) {
	a.reply(w, http.StatusOK, map[string]any{"ok": true, "leaving": true})
	select {
	case a.leavec <- struct{}{}:
	default:
	}
}

// ensureToken acquires the §7 write token when the hosted protocol is the
// multi-writer one (other protocols write token-free). Contention is
// resolved by retrying the claim until the deadline.
func (a *api) ensureToken() error {
	if a.cfg.protocol != "multiwriter" {
		return nil
	}
	deadline := time.Now().Add(a.cfg.opTimeout)
	for {
		won := make(chan bool, 1)
		errc := make(chan error, 1)
		err := a.tr.Invoke(func(n core.Node) {
			// Every protocol node rides inside the shard wrapper; the token
			// lives on the inner multiwriter.
			if sn, ok := n.(*shard.Node); ok {
				n = sn.Inner()
			}
			mw, ok := n.(*multiwriter.Node)
			if !ok {
				errc <- fmt.Errorf("node %T is not a multiwriter", n)
				return
			}
			if mw.Holder() {
				won <- true
				return
			}
			if err := mw.Acquire(func(ok bool) { won <- ok }); err != nil {
				errc <- err
			}
		})
		if err != nil {
			return err
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case ok := <-won:
			timer.Stop()
			if ok {
				return nil
			}
			// Lost the claim (another holder is alive); back off a beat
			// and retry until the deadline.
			time.Sleep(50 * time.Millisecond)
		case err := <-errc:
			timer.Stop()
			if errors.Is(err, core.ErrOpInProgress) {
				time.Sleep(50 * time.Millisecond)
			} else {
				return err
			}
		case <-timer.C:
			return nodeops.ErrTimeout
		}
		if time.Now().After(deadline) {
			return nodeops.ErrTimeout
		}
	}
}

func keyParam(r *http.Request) (core.RegisterID, error) {
	q := r.URL.Query().Get("key")
	if q == "" {
		return core.DefaultRegister, nil
	}
	k, err := strconv.ParseInt(q, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("key must be an integer")
	}
	return core.RegisterID(k), nil
}

// parseBatch parses "k1=v1,k2=v2" into sorted, deduplicated batch entries.
func parseBatch(s string) ([]core.KeyedWrite, error) {
	if s == "" {
		return nil, fmt.Errorf("writebatch needs b=k1=v1,k2=v2,...")
	}
	seen := make(map[core.RegisterID]bool)
	var entries []core.KeyedWrite
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad batch entry %q (want key=val)", pair)
		}
		key, err := strconv.ParseInt(strings.TrimSpace(k), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad batch key %q", k)
		}
		val, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad batch value %q", v)
		}
		reg := core.RegisterID(key)
		if seen[reg] {
			return nil, fmt.Errorf("batch names key %d twice", key)
		}
		seen[reg] = true
		entries = append(entries, core.KeyedWrite{Reg: reg, Val: core.Value(val)})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Reg < entries[j].Reg })
	return entries, nil
}
