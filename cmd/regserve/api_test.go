package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"churnreg/internal/core"
	"churnreg/internal/nettransport"
)

// fakeBackend implements the api's backend interface in memory: the
// admin surface only, with fixed answers.
type fakeBackend struct {
	// sharded, when set, makes ShardInfo report a sharded placement (the
	// /metrics and /health shard-gauge tests use it).
	sharded bool
	// closed, when set, makes Invoke fail without running fn, as the real
	// transport does once it has stopped.
	closed atomic.Bool
	// uncounted, when set, makes Invoke serve a node without a read-path
	// split, as an unsharded sync or esync daemon's is.
	uncounted bool
	// stats is what Stats() serves; tests may pre-load counters.
	stats nettransport.Stats
	// invokes counts Invoke calls: turns of the node's monitor.
	invokes atomic.Int64
}

func newFakeBackend() *fakeBackend { return &fakeBackend{} }

// Invoke runs fn synchronously against a stub node (the real transport
// schedules it on the loop goroutine; the api cannot tell the difference).
func (f *fakeBackend) Invoke(fn func(core.Node)) error {
	f.invokes.Add(1)
	if f.closed.Load() {
		return nettransport.ErrClosed
	}
	if f.uncounted {
		fn(plainNode{})
	} else {
		fn(stubNode{})
	}
	return nil
}
func (f *fakeBackend) Active() bool   { return true }
func (f *fakeBackend) PeerCount() int { return 2 }
func (f *fakeBackend) Addr() string   { return "fake:0" }

// Stats hands the api a live (zero-valued) counter block, as the real
// transport would.
func (f *fakeBackend) Stats() *nettransport.Stats { return &f.stats }

// plainNode is the minimal core.Node: it counts no read paths.
type plainNode struct{}

func (plainNode) Start()                                      {}
func (plainNode) Active() bool                                { return true }
func (plainNode) Deliver(from core.ProcessID, m core.Message) {}
func (plainNode) Snapshot() core.VersionedValue               { return core.VersionedValue{} }

// stubNode is the node the fake's Invoke serves by default, with a fixed
// read-path split so the /metrics fast/slow series is observable.
type stubNode struct{ plainNode }

func (stubNode) ReadPathCounts() (uint64, uint64) { return 5, 2 }

func (f *fakeBackend) ShardInfo() (int, int, int) {
	if f.sharded {
		return 16, 6, 3
	}
	return 0, 0, 0
}

// testAPI is an admin server answering on a loopback listener.
type testAPI struct {
	URL  string // http://host:port
	addr string // host:port
}

func newTestAPI(t *testing.T, b backend) *testAPI {
	t.Helper()
	return newTestAPIWith(t, b, make(chan struct{}, 1))
}

func newTestAPIWith(t *testing.T, b backend, leavec chan<- struct{}) *testAPI {
	t.Helper()
	return startAPI(t, newAPI(&serverConfig{id: 1, protocol: "sync"}, b, leavec))
}

// startAPI serves srv on a fresh loopback listener until the test ends.
func startAPI(t *testing.T, srv *adminServer) *testAPI {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.serve(ln)
		close(done)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return &testAPI{URL: "http://" + ln.Addr().String(), addr: ln.Addr().String()}
}

func call(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func get(t *testing.T, url string) (int, string)  { return call(t, "GET", url) }
func post(t *testing.T, url string) (int, string) { return call(t, "POST", url) }

// TestAPIServesAdminOnly: the HTTP API is administration — health,
// metrics, a graceful leave. Reads and writes travel on the wire protocol
// only, so the old operation paths are not found, under either method.
func TestAPIServesAdminOnly(t *testing.T) {
	leavec := make(chan struct{}, 1)
	srv := newTestAPIWith(t, newFakeBackend(), leavec)
	if status, body := get(t, srv.URL+"/health"); status != 200 || !strings.Contains(body, `"active":true`) {
		t.Fatalf("health status %d: %s", status, body)
	}
	if status, body := get(t, srv.URL+"/metrics"); status != 200 || !strings.Contains(body, "regserve_transport_") {
		t.Fatalf("metrics status %d: %s", status, body)
	}
	for _, path := range []string{"/read?key=0", "/write?key=0&val=1", "/writebatch?b=1=10"} {
		for _, method := range []string{"GET", "POST"} {
			if status, body := call(t, method, srv.URL+path); status != http.StatusNotFound {
				t.Errorf("%s %s: status %d, want 404 (%s)", method, path, status, body)
			}
		}
	}
	if status, body := post(t, srv.URL+"/leave"); status != 200 || !strings.Contains(body, `"leaving":true`) {
		t.Fatalf("leave status %d: %s", status, body)
	}
	select {
	case <-leavec:
	default:
		t.Fatal("/leave did not signal the daemon to leave")
	}
}

// TestAPIMetricsEndpoint: /metrics is Prometheus text, and it carries no
// per-operation series — operations never pass through this process's
// HTTP layer, so such series could only ever be empty.
func TestAPIMetricsEndpoint(t *testing.T) {
	srv := newTestAPI(t, newFakeBackend())
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type %q", ct)
	}
	if strings.Contains(string(body), "regserve_op_") {
		t.Fatalf("metrics output carries per-operation series:\n%s", body)
	}
}

// TestAPIShardGauges: a sharded backend's placement appears on /metrics
// (the three shard gauges) and on /health; an unsharded one exposes
// neither.
func TestAPIShardGauges(t *testing.T) {
	b := newFakeBackend()
	b.sharded = true
	srv := newTestAPI(t, b)
	status, body := get(t, srv.URL+"/metrics")
	if status != 200 {
		t.Fatalf("metrics status %d", status)
	}
	for _, line := range []string{
		"regserve_shards_total 16",
		"regserve_shards_owned 6",
		"regserve_shard_replication 3",
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("metrics output missing %q:\n%s", line, body)
		}
	}
	if status, body := get(t, srv.URL+"/health"); status != 200 || !strings.Contains(body, `"shards":16`) {
		t.Fatalf("health status %d missing shards: %s", status, body)
	}

	plain := newTestAPI(t, newFakeBackend())
	if _, body := get(t, plain.URL+"/metrics"); strings.Contains(body, "regserve_shards_total") {
		t.Fatalf("unsharded node exposes shard gauges:\n%s", body)
	}
}

// TestAPITransportAndReadPathMetrics: the wire-level hot-path series
// (coalescing factor, batch gauge, backpressure counters, the monitor's
// turns and its flushes, timer lateness) and the quorum read fast/slow
// split render on /metrics with the values the backend reports — every
// name a scraper (bench/ among them) already knows, unchanged.
func TestAPITransportAndReadPathMetrics(t *testing.T) {
	b := newFakeBackend()
	b.stats.FlushWrites.Store(10)
	b.stats.FlushedFrames.Store(80)
	b.stats.LastBatchFrames.Store(16)
	b.stats.MailboxStalls.Store(3)
	b.stats.QueueDrops.Store(2)
	b.stats.LoopTurns.Store(7)
	b.stats.LoopTasks.Store(91)
	b.stats.SelfDeliveries.Store(40)
	b.stats.InlineFlushes.Store(9)
	b.stats.FlushHandoffs.Store(1)
	b.stats.TimerFires.Store(12)
	b.stats.TimerLateNanos.Store(1_500_000)
	b.stats.TimerOverruns.Store(1)
	srv := newTestAPI(t, b)
	status, body := get(t, srv.URL+"/metrics")
	if status != 200 {
		t.Fatalf("metrics status %d", status)
	}
	for _, line := range []string{
		"regserve_transport_frames_per_write 8",
		"regserve_transport_last_batch_frames 16",
		"regserve_transport_flushed_frames_total 80",
		"regserve_transport_mailbox_stalls_total 3",
		"regserve_transport_queue_drops_total 2",
		"regserve_transport_loop_turns_total 7",
		"regserve_transport_loop_tasks_total 91",
		"regserve_transport_self_deliveries_total 40",
		"regserve_transport_inline_flushes_total 9",
		"regserve_transport_flush_handoffs_total 1",
		"regserve_transport_timer_fires_total 12",
		"regserve_transport_timer_late_seconds_total 0.0015",
		"regserve_transport_timer_overruns_total 1",
		`regserve_read_path_total{path="fast"} 5`,
		`regserve_read_path_total{path="slow"} 2`,
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("metrics output missing %q:\n%s", line, body)
		}
	}
}

// loadGoldenStats gives every transport counter /metrics renders a
// distinct non-zero value. LoopTasks is large enough that %g would print
// it as 1.2345678e+07, frames per write (1000/300) is not a round number,
// and the timer lateness (15 µs) is small enough that %g prints 1.5e-05.
func loadGoldenStats(s *nettransport.Stats) {
	s.FlushWrites.Store(300)
	s.FlushedFrames.Store(1000)
	s.FlushedBytes.Store(43210)
	s.LastBatchFrames.Store(17)
	s.MailboxStalls.Store(4)
	s.QueueDrops.Store(3)
	s.SendUnknown.Store(5)
	s.Reconnects.Store(9)
	s.DecodeErrors.Store(11)
	s.LoopTurns.Store(654321)
	s.LoopTasks.Store(12345678)
	s.SelfDeliveries.Store(4321)
	s.InlineFlushes.Store(290)
	s.FlushHandoffs.Store(6)
	s.TimerFires.Store(88)
	s.TimerLateNanos.Store(15000)
	s.TimerOverruns.Store(2)
	s.ForwardsServed.Store(7)
	s.ForwardsRefused.Store(2)
}

// TestAPIMetricsGolden pins /metrics byte for byte, unsharded and
// sharded: every series name, HELP and TYPE line, label and number format
// a scraper (bench/ among them) reads. A change that means to alter the
// exposition rewrites the golden files and says why.
func TestAPIMetricsGolden(t *testing.T) {
	for _, name := range []string{"unsharded", "sharded"} {
		t.Run(name, func(t *testing.T) {
			b := newFakeBackend()
			b.sharded = name == "sharded"
			loadGoldenStats(&b.stats)
			_, got := get(t, newTestAPI(t, b).URL+"/metrics")
			want, err := os.ReadFile(filepath.Join("testdata", "metrics-"+name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("/metrics line %d:\n got %q\nwant %q\nfull output:\n%s", i+1, g, w, got)
				}
			}
		})
	}
}

// TestAPIMetricsOneInvokePerScrape: the read-path split, which lives on
// the node, is read in one turn of its monitor per scrape, and a node
// that does not answer — here, a stopped transport — omits it while the
// transport's own counters, the client operations it served and refused
// among them, still render.
func TestAPIMetricsOneInvokePerScrape(t *testing.T) {
	b := newFakeBackend()
	srv := newTestAPI(t, b)
	for i := int64(1); i <= 3; i++ {
		get(t, srv.URL+"/metrics")
		if got := b.invokes.Load(); got != i {
			t.Fatalf("after %d scrapes the node's monitor was entered %d times, want %d", i, got, i)
		}
	}
	b.closed.Store(true)
	_, body := get(t, srv.URL+"/metrics")
	for _, name := range []string{"regserve_transport_loop_turns_total", "regserve_forward_served_total", "regserve_forward_refused_total"} {
		if !strings.Contains(body, name) {
			t.Fatalf("stopped node dropped %s:\n%s", name, body)
		}
	}
	if strings.Contains(body, "regserve_read_path_total") {
		t.Fatalf("stopped node still renders regserve_read_path_total:\n%s", body)
	}
}

// TestAPIReadPathZeroWithoutCounter: a node without a read-path split
// (an unsharded sync or esync daemon's engine) reports 0 fast and 0 slow
// reads, rather than omitting the series.
func TestAPIReadPathZeroWithoutCounter(t *testing.T) {
	b := newFakeBackend()
	b.uncounted = true
	_, body := get(t, newTestAPI(t, b).URL+"/metrics")
	for _, line := range []string{
		`regserve_read_path_total{path="fast"} 0`,
		`regserve_read_path_total{path="slow"} 0`,
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("metrics output missing %q:\n%s", line, body)
		}
	}
}

// TestAPIForwardMetrics: the transport's counts of the client operations
// (FORWARDs) it served and refused render on /metrics.
func TestAPIForwardMetrics(t *testing.T) {
	b := newFakeBackend()
	b.stats.ForwardsServed.Store(7)
	b.stats.ForwardsRefused.Store(2)
	srv := newTestAPI(t, b)
	status, body := get(t, srv.URL+"/metrics")
	if status != 200 {
		t.Fatalf("metrics status %d", status)
	}
	for _, line := range []string{
		"regserve_forward_served_total 7",
		"regserve_forward_refused_total 2",
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("metrics output missing %q:\n%s", line, body)
		}
	}
}

// TestAPIPprofGating: /debug/pprof serves only when -pprof was given.
func TestAPIPprofGating(t *testing.T) {
	cfg := &serverConfig{id: 1, protocol: "sync", pprof: true}
	on := startAPI(t, newAPI(cfg, newFakeBackend(), make(chan struct{}, 1)))
	if status, body := get(t, on.URL+"/debug/pprof/cmdline"); status != 200 {
		t.Fatalf("pprof-enabled node: /debug/pprof/cmdline status %d: %s", status, body)
	}
	off := newTestAPI(t, newFakeBackend()) // pprof unset
	if status, _ := get(t, off.URL+"/debug/pprof/cmdline"); status == 200 {
		t.Fatal("pprof served without -pprof")
	}
}
