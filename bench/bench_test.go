//go:build linux

package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"churnreg/bench/layers"
	"churnreg/bench/loadgen"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// sameMetrics checks that a run reported exactly the declared metrics,
// each finite and with the declared unit.
func sameMetrics(t *testing.T, what string, got []metric, want []declared) {
	t.Helper()
	units := map[string]string{}
	for _, m := range got {
		if _, dup := units[m.name]; dup {
			t.Errorf("%s: metric %s reported twice", what, m.name)
		}
		units[m.name] = m.unit
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s: %s = %v", what, m.name, m.value)
		}
	}
	for _, d := range want {
		unit, ok := units[d.Name]
		if !ok {
			t.Errorf("%s: BENCHMARK.json declares %s, the run did not report it", what, d.Name)
		} else if unit != d.Unit {
			t.Errorf("%s: %s reported in %q, declared in %q", what, d.Name, unit, d.Unit)
		}
		delete(units, d.Name)
	}
	for name := range units {
		t.Errorf("%s: the run reported %s, BENCHMARK.json does not declare it", what, name)
	}
}

// TestBenchmarkJSONMatchesTheCode computes both metric sets from a made-up
// run, which needs no cluster, and compares names and units with
// BENCHMARK.json; the workloads and the default run length must match too.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	doc := readBenchmarkJSON(t)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var coded []string
	for _, w := range workloads {
		coded = append(coded, w.name)
	}
	if !reflect.DeepEqual(names, coded) {
		t.Errorf("BENCHMARK.json lists workloads %v, the code has %v", names, coded)
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json and the code give %s different reasons", w.Name)
		}
	}

	spans := make([]loadgen.Span, 400)
	for i := range spans {
		at := time.Duration(i) * time.Millisecond
		spans[i] = loadgen.Span{Seq: i, Key: int64(i % 4), Write: i%10 == 0, Sched: at, Call: at, Ret: at + time.Millisecond}
	}
	samples := []sample{{at: 0}, {at: 100 * time.Millisecond, servers: time.Second}, {at: 300 * time.Millisecond, servers: 2 * time.Second}}
	w := workloads[3]
	sameMetrics(t, "plain run", endToEnd(w, spans, samples, []float64{0.1}, 1<<20), doc.EndToEnd)

	legs, err := layers.Measure()
	if err != nil {
		t.Fatal(err)
	}
	churn := []churnEvent{{join: true, took: 70 * time.Millisecond}, {took: 20 * time.Millisecond}}
	sameMetrics(t, "traced run", perLayer(w, spans, samples, churn, lateness(spans), legs), doc.PerLayer)

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, d := range append(doc.EndToEnd, doc.PerLayer...) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q is not one the driver accepts", d.Name)
		}
	}
}

// TestEndToEndReportsTheQuietQuartile: two segments, so eight windows of
// 100 ms with ten reads and one write due in each; in five of the eight
// everything takes three times as long and two operations fail. The
// latencies reported are those of the quiet windows and the throughput is
// that of the windows in which nothing failed.
func TestEndToEndReportsTheQuietQuartile(t *testing.T) {
	var spans []loadgen.Span
	for i := 0; i < 88; i++ {
		win := i / 11
		at := time.Duration(win)*100*time.Millisecond + time.Duration(i%11)*5*time.Millisecond
		sp := loadgen.Span{Seq: i, Write: i%11 == 0, Sched: at, Call: at, Ret: at + time.Millisecond}
		if win%8 >= 3 {
			sp.Ret = at + 3*time.Millisecond
			if i%11 >= 9 {
				sp.Err = context.DeadlineExceeded
			}
		}
		spans = append(spans, sp)
	}
	samples := []sample{{at: 0}, {at: 400 * time.Millisecond}, {at: 800 * time.Millisecond}}
	got := map[string]float64{}
	for _, m := range endToEnd(workloads[0], spans, samples, []float64{0.1}, 1<<20) {
		got[m.name] = m.value
	}
	if got["read_p50_ms"] != 1 || got["write_over_floor_ms"] != 1 || got["throughput_ops_s"] != 110 {
		t.Fatalf("read p50 %v ms, write over floor %v ms, %v ops/s; want 1, 1 and 110 from the three quiet windows",
			got["read_p50_ms"], got["write_over_floor_ms"], got["throughput_ops_s"])
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	leaveAt := func(k int) time.Duration { return time.Duration(2*k+1) * time.Second }
	for _, w := range workloads {
		a := planFor(w, 5, 11*time.Second, 5, leaveAt)
		b := planFor(w, 5, 11*time.Second, 5, leaveAt)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two schedules from seed 5 differ", w.name)
		}
		if reflect.DeepEqual(a, planFor(w, 6, 11*time.Second, 5, leaveAt)) {
			t.Errorf("%s: seeds 5 and 6 give the same schedule", w.name)
		}
	}
}

func TestNoWriteIsDueAroundALeave(t *testing.T) {
	w := workloads[3]
	if !w.churn {
		t.Fatal("workloads[3] is not the churn workload")
	}
	leaveAt := func(k int) time.Duration { return time.Duration(2*k+1) * time.Second }
	writes := 0
	for _, op := range planFor(w, 1, 11*time.Second, 5, leaveAt) {
		if !op.Write {
			continue
		}
		writes++
		for k := 0; k < 5; k++ {
			if d := op.Due - leaveAt(k); -w.floor()-20*time.Millisecond <= d && d <= 40*time.Millisecond {
				t.Fatalf("a write is due %v from the leave at %v", d, leaveAt(k))
			}
		}
	}
	if writes < 1700 {
		t.Fatalf("only %d writes in 11 s at 200 writes a second", writes)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 1 3 5 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1 2 3 4 = %v", got)
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if p50, p99 := quantile(xs, 0.5), quantile(xs, 0.99); p50 != 50 || p99 != 99 {
		t.Errorf("p50, p99 of 0..100 = %v, %v", p50, p99)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got := iqr([]float64{16, 1, 8, 2, 4}); got != 10.5 {
		t.Errorf("interquartile range of 1 2 4 8 16 = %v, want 10.5", got)
	}
	if median(nil) != 0 || quantile(nil, 0.5) != 0 {
		t.Error("an empty sample has a non-zero median or quantile")
	}
}

// TestSmoke runs every workload for real, plain and traced, with one-second
// segments (so one join and one leave per second on the churn workload).
// The test shares the machine with the rest of the suite and checks that
// the benchmark works, not what it measures: the open loops run at a
// quarter of their rates, a late generator is logged and not failed, and
// the synchronous protocol gets δ = 50 ms, half the benchmark's, so that a
// join (3δ) is over before the leave of the same one-second segment.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds regserve and runs OS processes; skipped in -short")
	}
	dir := t.TempDir()
	regserve := filepath.Join(dir, "regserve")
	build := exec.Command("go", "build", "-o", regserve, "churnreg/cmd/regserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building regserve: %v\n%s", err, out)
	}
	doc := readBenchmarkJSON(t)
	for _, w := range workloads {
		w.mix.Rate /= 4
		if w.protocol == "sync" {
			w.delta = 50
		}
		for _, trace := range []bool{false, true} {
			o := options{regserve: regserve, seed: 1, measured: segments * time.Second, setups: 1, trace: trace, outDir: dir}
			rep, err := run(context.Background(), w, o)
			if err != nil {
				t.Fatalf("%s (trace %t): %v", w.name, trace, err)
			}
			if rep.invalid != "" {
				t.Logf("%s (trace %t): %s", w.name, trace, rep.invalid)
			}
			if rep.verdict != nil {
				t.Errorf("%s (trace %t): %v", w.name, trace, rep.verdict)
			}
			if rep.failed != 0 || rep.attempted < 1000 {
				t.Errorf("%s (trace %t): %d of %d operations failed", w.name, trace, rep.failed, rep.attempted)
			}
			if !trace {
				sameMetrics(t, w.name+" plain", rep.metrics, doc.EndToEnd)
				for _, m := range rep.metrics {
					if m.value <= 0 {
						t.Errorf("%s: %s = %v, want above zero", w.name, m.name, m.value)
					}
				}
				continue
			}
			sameMetrics(t, w.name+" traced", rep.metrics, doc.PerLayer)
			if fi, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".jsonl")); err != nil || fi.Size() == 0 {
				t.Errorf("%s: no span file: %v", w.name, err)
			}
			got := map[string]float64{}
			for _, m := range rep.metrics {
				got[m.name] = m.value
			}
			if w.churn != (got["regserve.join_ms"] > 0 && got["regserve.leave_ms"] > 0 && got["client.refreshes"] > 0) {
				t.Errorf("%s: churn=%t but join %v ms, leave %v ms, %v view refreshes",
					w.name, w.churn, got["regserve.join_ms"], got["regserve.leave_ms"], got["client.refreshes"])
			}
			if got["nettransport.frames_per_op"] <= 0 || got["client.rtt_p50_ms"] <= 0 {
				t.Errorf("%s: frames per op %v, rtt %v ms", w.name, got["nettransport.frames_per_op"], got["client.rtt_p50_ms"])
			}
		}
	}
}
