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
//
// With -pprof it also serves the runtime's profiles under /debug/pprof/:
//
//	go tool pprof -top 'http://localhost:8003/debug/pprof/profile?seconds=1'
//
// The admin API is a small HTTP/1.1 responder of its own (admin.go), not
// net/http, which with its TLS and X.509 stack would double the image
// every daemon maps. It speaks the subset curl, a scraper and go tool
// pprof use: one request per connection, closed after the answer (no
// keep-alive), a request head of at most 8 KiB read under a deadline,
// and no request bodies (one sent anyway is ignored).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unicode/utf8"

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
		pprofFlag   = fs.Bool("pprof", false, "serve the runtime's CPU, heap and other profiles and its execution trace under /debug/pprof on the API address (profiling a live cluster)")
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
	if _, err := factoryFor(cfg.protocol, cfg.shards); err != nil {
		return nil, err
	}
	return cfg, nil
}

// factoryFor resolves the protocol factory, wrapped in the sharding layer
// when the keyspace is sharded (shards > 0). The transport serves a wire
// client's operations through core.Ops, which every engine implements.
func factoryFor(protocol string, shards int) (core.NodeFactory, error) {
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
	if shards > 0 {
		f = shard.Factory(f)
	}
	return f, nil
}

func run(args []string, out, errW io.Writer) error {
	cfg, err := parseFlags(args, errW)
	if err != nil {
		return err
	}
	factory, err := factoryFor(cfg.protocol, cfg.shards)
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
	apiDone := make(chan error, 1)
	go func() { apiDone <- newAPI(cfg, tr, leavec).serve(apiLn) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	select {
	case sig := <-sigc:
		fmt.Fprintf(errW, "regserve %d: %v, leaving gracefully\n", cfg.id, sig)
	case <-leavec:
		fmt.Fprintf(errW, "regserve %d: leave requested via API\n", cfg.id)
	case err := <-apiDone:
		tr.Close()
		return fmt.Errorf("api server: %w", err)
	}
	tr.Leave()
	apiLn.Close()
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
	// Stats exposes the transport's counters (coalescing factor, batch
	// gauge, queue drops, monitor stalls, client operations served and
	// refused) for /metrics.
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

// apiTimeout bounds each step of an admin exchange: reading the request's
// head, writing the answer, draining a body the client sent anyway.
const apiTimeout = 5 * time.Second

func newAPI(cfg *serverConfig, tr backend, leavec chan<- struct{}) *adminServer {
	a := &api{cfg: cfg, tr: tr, leavec: leavec}
	routes := map[string]route{
		"/health":  {"GET", "application/json", a.health},
		"/leave":   {"POST", "application/json", a.leave},
		"/metrics": {"GET", metrics.ContentType, a.metrics},
	}
	if cfg.pprof {
		addPprofRoutes(routes)
	}
	return &adminServer{routes: routes, timeout: apiTimeout}
}

// metrics serves the Prometheus text exposition of series.
func (a *api) metrics(w *bytes.Buffer, _ url.Values) error {
	return metrics.WriteText(w, a.series())
}

// series is every series /metrics exports, in the order it prints: the one
// place their names, HELP texts and types are declared. bench/ scrapes
// them, so a name or a number format changes only with its golden file.
// The transport's counters come first; then the quorum-read split, which
// lives on the node and is omitted when the node does not answer within
// 2 s; then the transport's counts of client operations served and
// refused; then, when the keyspace is sharded, the placement gauges.
func (a *api) series() []metrics.Series {
	st := a.tr.Stats()
	out := []metrics.Series{
		metrics.Gauge("regserve_transport_frames_per_write", "Average frames coalesced into one frame-carrying write syscall.", metrics.Float(st.FramesPerWrite())),
		metrics.Gauge("regserve_transport_last_batch_frames", "Frame count of the most recently flushed batch.", metrics.Int(st.LastBatchFrames.Load())),
		metrics.Counter("regserve_transport_flushed_frames_total", "Frames written to peers and client sessions by coalesced flushes.", metrics.Int(st.FlushedFrames.Load())),
		metrics.Counter("regserve_transport_flushed_bytes_total", "Bytes written to peers and client sessions by coalesced flushes; over flushed frames, the mean frame size.", metrics.Int(st.FlushedBytes.Load())),
		metrics.Counter("regserve_transport_mailbox_stalls_total", "Producers (connection readers, timers, API calls) that found the node's monitor held and waited for it.", metrics.Int(st.MailboxStalls.Load())),
		metrics.Counter("regserve_transport_queue_drops_total", "Frames dropped, oldest first, on full per-link queues.", metrics.Int(st.QueueDrops.Load())),
		metrics.Counter("regserve_transport_send_unknown_total", "Messages addressed to a process with no address-book entry, dropped.", metrics.Int(st.SendUnknown.Load())),
		metrics.Counter("regserve_transport_reconnects_total", "Successful dials to a peer beyond the first.", metrics.Int(st.Reconnects.Load())),
		metrics.Counter("regserve_transport_decode_errors_total", "Connections dropped on a frame that failed to decode (a malformed frame, or a kind this build refuses).", metrics.Int(st.DecodeErrors.Load())),
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
		out = append(out, metrics.Counter("regserve_read_path_total", "Completed quorum reads by path: fast is the one-round path (all phase-1 replies agreed, write-back skipped).", metrics.Int(c.fast, "path", "fast"), metrics.Int(c.slow, "path", "slow")))
	}
	out = append(out,
		metrics.Counter("regserve_forward_served_total", "Forwarded operations (a wire client's reads and writes) this node served.", metrics.Int(st.ForwardsServed.Load())),
		metrics.Counter("regserve_forward_refused_total", "Forwarded operations this node refused (wrong replica, not active, or busy).", metrics.Int(st.ForwardsRefused.Load())),
	)
	if shards, owned, repl := a.tr.ShardInfo(); shards > 0 {
		out = append(out,
			metrics.Gauge("regserve_shards_total", "Total shards the keyspace hashes onto.", metrics.Int(uint64(shards))),
			metrics.Gauge("regserve_shards_owned", "Shards this node currently replicates.", metrics.Int(uint64(owned))),
			metrics.Gauge("regserve_shard_replication", "Configured replica group size per shard.", metrics.Int(uint64(repl))),
		)
	}
	return out
}

// nodeCounts is what one scrape reads from the node: its quorum-read
// split, 0 and 0 for a node without core.ReadPathCounter.
type nodeCounts struct{ fast, slow uint64 }

// readNodeCounts reads the node's counters in one turn of its monitor. It
// returns nil when the node did not answer within 2 s (or has stopped):
// a node too busy to answer promptly omits that series this scrape.
func (a *api) readNodeCounts() *nodeCounts {
	done := make(chan *nodeCounts, 1)
	// The timeout must bound the WHOLE fetch, including Invoke's wait for
	// the monitor, so Invoke runs on its own goroutine; its send is
	// buffered and its wait ends when the transport stops, so the
	// goroutine never outlives a busy node by more than that.
	go func() {
		var c *nodeCounts
		a.tr.Invoke(func(n core.Node) {
			c = &nodeCounts{}
			if rc, ok := n.(core.ReadPathCounter); ok {
				c.fast, c.slow = rc.ReadPathCounts()
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

// health serves the node's identity and state as a JSON object, keys in
// sorted order and a newline after it, as encoding/json would write the
// map of them. It is written by hand into w's spare room, so a probe of
// a process that lives a few seconds leaves nothing behind.
func (a *api) health(w *bytes.Buffer, _ url.Values) error {
	b := append(w.AvailableBuffer(), `{"active":`...)
	b = strconv.AppendBool(b, a.tr.Active())
	b = append(b, `,"addr":`...)
	b = appendJSONString(b, a.tr.Addr())
	b = append(b, `,"id":`...)
	b = strconv.AppendInt(b, a.cfg.id, 10)
	b = append(b, `,"peers":`...)
	b = strconv.AppendInt(b, int64(a.tr.PeerCount()), 10)
	b = append(b, `,"protocol":`...)
	b = appendJSONString(b, a.cfg.protocol)
	if shards, owned, repl := a.tr.ShardInfo(); shards > 0 {
		b = append(b, `,"replication":`...)
		b = strconv.AppendInt(b, int64(repl), 10)
		b = append(b, `,"shards":`...)
		b = strconv.AppendInt(b, int64(shards), 10)
		b = append(b, `,"shards_owned":`...)
		b = strconv.AppendInt(b, int64(owned), 10)
	}
	_, err := w.Write(append(b, "}\n"...))
	return err
}

// appendJSONString appends s to b as encoding/json writes a string: quoted,
// with ", \, control bytes, <, > and & escaped, each invalid UTF-8 byte as
// \ufffd, and U+2028 and U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		switch short := strings.IndexRune("\b\f\n\r\t", r); {
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case short >= 0:
			b = append(b, '\\', "bfnrt"[short])
		case r < ' ' || r == '<' || r == '>' || r == '&' || r == '\u2028' || r == '\u2029' || r == utf8.RuneError && size == 1:
			b = append(b, '\\', 'u', hex[r>>12&0xf], hex[r>>8&0xf], hex[r>>4&0xf], hex[r&0xf])
		default:
			b = append(b, s[i:i+size]...)
		}
		i += size
	}
	return append(b, '"')
}

// leave answers {"leaving":true,"ok":true} and tells the daemon to leave.
func (a *api) leave(w *bytes.Buffer, _ url.Values) error {
	_, err := w.WriteString(`{"leaving":true,"ok":true}` + "\n")
	select {
	case a.leavec <- struct{}{}:
	default:
	}
	return err
}
