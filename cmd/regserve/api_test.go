package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/nettransport"
	"churnreg/internal/nodeops"
	"churnreg/internal/shard"
)

// fakeBackend implements the api's backend interface in memory: writes
// assign the key's next sequence number under a lock, reads return the
// stored copy. A hold channel, when set, blocks writes until released —
// the hook the concurrency tests use to observe in-flight state.
type fakeBackend struct {
	mu   sync.Mutex
	vals map[core.RegisterID]core.VersionedValue
	hold chan struct{}
	// sharded, when set, makes ShardInfo report a sharded placement (the
	// /metrics and /health shard-gauge tests use it).
	sharded bool
	// stats is what Stats() serves; tests may pre-load counters.
	stats nettransport.Stats
	// readErr / writeErr, when set, fail the respective operations — the
	// hook the error-status tests use.
	readErr, writeErr error
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{vals: make(map[core.RegisterID]core.VersionedValue)}
}

func (f *fakeBackend) ReadKey(reg core.RegisterID, _ time.Duration) (core.VersionedValue, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.readErr != nil {
		return core.VersionedValue{}, f.readErr
	}
	return f.vals[reg], nil
}

func (f *fakeBackend) WriteKey(reg core.RegisterID, v core.Value, _ time.Duration) (core.VersionedValue, error) {
	if f.writeErr != nil {
		return core.VersionedValue{}, f.writeErr
	}
	if f.hold != nil {
		<-f.hold
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	next := core.VersionedValue{Val: v, SN: f.vals[reg].SN + 1}
	f.vals[reg] = next
	return next, nil
}

func (f *fakeBackend) WriteBatch(entries []core.KeyedWrite, d time.Duration) ([]core.KeyedValue, error) {
	out := make([]core.KeyedValue, len(entries))
	for i, e := range entries {
		vv, err := f.WriteKey(e.Reg, e.Val, d)
		if err != nil {
			return nil, err
		}
		out[i] = core.KeyedValue{Reg: e.Reg, Value: vv}
	}
	return out, nil
}

// ReadKeyServed attributes every fake read to process 9 — distinct from
// the api's own id, so the served_by plumbing is observable.
func (f *fakeBackend) ReadKeyServed(reg core.RegisterID, d time.Duration) (core.VersionedValue, core.ProcessID, error) {
	v, err := f.ReadKey(reg, d)
	return v, 9, err
}

// Invoke runs fn synchronously against a stub node (the real transport
// schedules it on the loop goroutine; the api cannot tell the difference).
func (f *fakeBackend) Invoke(fn func(core.Node)) error {
	fn(stubNode{})
	return nil
}
func (f *fakeBackend) Active() bool   { return true }
func (f *fakeBackend) PeerCount() int { return 2 }
func (f *fakeBackend) Addr() string   { return "fake:0" }

// Stats hands the api a live (zero-valued) counter block, as the real
// transport would.
func (f *fakeBackend) Stats() *nettransport.Stats { return &f.stats }

// stubNode is the minimal core.Node the fake's Invoke serves, with a
// fixed read-path split so the /metrics fast/slow series is observable.
type stubNode struct{}

func (stubNode) Start()                                      {}
func (stubNode) Active() bool                                { return true }
func (stubNode) Deliver(from core.ProcessID, m core.Message) {}
func (stubNode) Snapshot() core.VersionedValue               { return core.VersionedValue{} }
func (stubNode) ReadPathCounts() (uint64, uint64)            { return 5, 2 }

// Stats satisfies the api's forwardCounter slice with fixed relay
// counts, so the regserve_forward_* series is observable.
func (stubNode) Stats() shard.Stats {
	return shard.Stats{ForwardedReads: 4, ForwardedWrites: 1, ForwardsServed: 7, ForwardsRefused: 2}
}

func (f *fakeBackend) ShardInfo() (int, int, int) {
	if f.sharded {
		return 16, 6, 3
	}
	return 0, 0, 0
}

func newTestAPI(t *testing.T, b backend) *httptest.Server {
	t.Helper()
	cfg := &serverConfig{id: 1, protocol: "sync", opTimeout: time.Second}
	srv := httptest.NewServer(newAPI(cfg, b, make(chan struct{}, 1)))
	t.Cleanup(srv.Close)
	return srv
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

// TestAPIWriteReportsExactSN pins the pipelining contract on the wire:
// the sn in a write response is the one THIS write stored, not a
// snapshot that a concurrent write could have advanced.
func TestAPIWriteReportsExactSN(t *testing.T) {
	b := newFakeBackend()
	srv := newTestAPI(t, b)
	for want := int64(1); want <= 3; want++ {
		status, body := post(t, srv.URL+"/write?key=5&val=42")
		if status != 200 {
			t.Fatalf("write status %d: %s", status, body)
		}
		var res struct {
			SN int64 `json:"sn"`
		}
		if err := json.Unmarshal([]byte(body), &res); err != nil {
			t.Fatal(err)
		}
		if res.SN != want {
			t.Fatalf("write #%d reported sn %d", want, res.SN)
		}
	}
	status, body := post(t, srv.URL+"/writebatch?b=1=10,2=20")
	if status != 200 {
		t.Fatalf("writebatch status %d: %s", status, body)
	}
	var res struct {
		SNs map[string]int64 `json:"sns"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.SNs["1"] != 1 || res.SNs["2"] != 1 {
		t.Fatalf("batch sns = %v, want both 1", res.SNs)
	}
}

// TestAPIMetricsEndpoint drives traffic through the handlers and checks
// the /metrics exposition: latency histograms count completed operations,
// and the in-flight gauge is live while a write is blocked mid-handler.
func TestAPIMetricsEndpoint(t *testing.T) {
	b := newFakeBackend()
	srv := newTestAPI(t, b)

	for i := 0; i < 3; i++ {
		if status, body := get(t, srv.URL+"/read?key=7"); status != 200 {
			t.Fatalf("read status %d: %s", status, body)
		}
	}
	if status, body := post(t, srv.URL+"/write?key=7&val=1"); status != 200 {
		t.Fatalf("write status %d: %s", status, body)
	}

	status, body := get(t, srv.URL+"/metrics")
	if status != 200 {
		t.Fatalf("metrics status %d", status)
	}
	for _, line := range []string{
		`regserve_op_seconds_count{op="read"} 3`,
		`regserve_op_seconds_count{op="write"} 1`,
		`regserve_op_seconds_bucket{op="read",le="+Inf"} 3`,
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("metrics output missing %q:\n%s", line, body)
		}
	}

	// Gauge: block a write inside the backend and watch it appear.
	b.hold = make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		status, _ := post(t, srv.URL+"/write?key=9&val=2")
		if status != 200 {
			errc <- io.ErrUnexpectedEOF
			return
		}
		errc <- nil
	}()
	deadline := time.After(5 * time.Second)
	for {
		_, body := get(t, srv.URL+"/metrics")
		if strings.Contains(body, `regserve_op_inflight{op="write",key="9"} 1`) {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("in-flight gauge never appeared:\n%s", body)
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(b.hold)
	if err := <-errc; err != nil {
		t.Fatal("blocked write failed")
	}
	// Drained: the gauge series disappears (bounded exposition).
	_, body = get(t, srv.URL+"/metrics")
	if strings.Contains(body, `regserve_op_inflight{op="write",key="9"}`) {
		t.Fatalf("in-flight gauge not reclaimed:\n%s", body)
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

// TestAPIReadReportsServer: the read response carries served_by — the
// replica whose copy produced the value (the fake attributes to 9).
func TestAPIReadReportsServer(t *testing.T) {
	srv := newTestAPI(t, newFakeBackend())
	status, body := get(t, srv.URL+"/read?key=3")
	if status != 200 {
		t.Fatalf("read status %d: %s", status, body)
	}
	var out struct {
		ServedBy int64 `json:"served_by"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.ServedBy != 9 {
		t.Fatalf("served_by = %d, want 9", out.ServedBy)
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

// TestAPIErrorStatuses pins the error-to-status map the wire client's
// HTTP-facing cousins depend on — above all that the two routing
// failures stay DISTINCT: 503 says "not applied, retry freely", 502 says
// "fate unknown, do NOT blindly retry". Collapsing them would turn every
// ambiguous write into a client retry and break the per-key write
// discipline.
func TestAPIErrorStatuses(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		op     string
		status int
	}{
		{"unroutable read", core.ErrUnroutable, "read", http.StatusServiceUnavailable},
		{"unroutable write", core.ErrUnroutable, "write", http.StatusServiceUnavailable},
		{"unacknowledged write", core.ErrUnacknowledged, "write", http.StatusBadGateway},
		{"not active", core.ErrNotActive, "read", http.StatusServiceUnavailable},
		{"op in progress", core.ErrOpInProgress, "write", http.StatusConflict},
		{"timeout", nodeops.ErrTimeout, "read", http.StatusGatewayTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newFakeBackend()
			var status int
			var body string
			if tc.op == "read" {
				b.readErr = tc.err
				srv := newTestAPI(t, b)
				status, body = get(t, srv.URL+"/read?key=1")
			} else {
				b.writeErr = tc.err
				srv := newTestAPI(t, b)
				status, body = post(t, srv.URL+"/write?key=1&val=2")
			}
			if status != tc.status {
				t.Fatalf("%s %v: status %d, want %d (%s)", tc.op, tc.err, status, tc.status, body)
			}
			// The body names the error — operators and clients see which
			// failure this was, not just the class.
			var out struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(body), &out); err != nil || out.Error == "" {
				t.Fatalf("%s %v: body %q does not carry the error", tc.op, tc.err, body)
			}
		})
	}
}

// TestAPIForwardMetrics: the relay-hop counters from the shard wrapper
// render on /metrics — the series the direct-routing benchmark scrapes
// to prove the smart client eliminated the FORWARD hop.
func TestAPIForwardMetrics(t *testing.T) {
	srv := newTestAPI(t, newFakeBackend())
	status, body := get(t, srv.URL+"/metrics")
	if status != 200 {
		t.Fatalf("metrics status %d", status)
	}
	for _, line := range []string{
		`regserve_forward_total{op="read"} 4`,
		`regserve_forward_total{op="write"} 1`,
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
	cfg := &serverConfig{id: 1, protocol: "sync", opTimeout: time.Second, pprof: true}
	on := httptest.NewServer(newAPI(cfg, newFakeBackend(), make(chan struct{}, 1)))
	t.Cleanup(on.Close)
	if status, body := get(t, on.URL+"/debug/pprof/cmdline"); status != 200 {
		t.Fatalf("pprof-enabled node: /debug/pprof/cmdline status %d: %s", status, body)
	}
	off := newTestAPI(t, newFakeBackend()) // pprof unset
	if status, _ := get(t, off.URL+"/debug/pprof/cmdline"); status == 200 {
		t.Fatal("pprof served without -pprof")
	}
}
