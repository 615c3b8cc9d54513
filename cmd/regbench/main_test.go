//go:build linux

package main

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"churnreg/bench/loadgen"
	"churnreg/client"
)

func TestParseFlagsValidates(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the expected error ("" = ok)
	}{
		{"wire needs seeds", nil, "-seeds"},
		{"unknown mode", []string{"-mode", "wire", "-seeds", "a:1"}, "not defined: -mode"},
		{"api is gone", []string{"-api", "a:1", "-seeds", "a:1"}, "not defined: -api"},
		{"compare is gone", []string{"-compare"}, "not defined: -compare"},
		{"bad rate", []string{"-seeds", "a:1", "-rate", "0"}, "must be > 0"},
		{"bad write frac", []string{"-seeds", "a:1", "-write-frac", "1.5"}, "-write-frac"},
		{"ok wire", []string{"-seeds", "a:1,b:2", "-rate", "2000", "-ops", "10", "-keys", "8", "-write-frac", "1", "-seed", "3"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseFlags(tc.args, io.Discard)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("parsed %v into %+v, want error containing %q", tc.args, cfg, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestParseFlagsSeedsList(t *testing.T) {
	cfg, err := parseFlags([]string{"-seeds", "a:1, b:2 ,,c:3"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.seeds) != 3 || cfg.seeds[0] != "a:1" || cfg.seeds[1] != "b:2" || cfg.seeds[2] != "c:3" {
		t.Fatalf("seeds = %q", cfg.seeds)
	}
}

// TestOpenLoopMeasuresFromScheduledArrival: a read issued 10 ms after it
// was due and answered 1 ms later took 11 ms, not 1 — the lateness is the
// stall an open loop exists to show. Failed operations count as errors and
// in no percentile, whichever class they belong to.
func TestOpenLoopMeasuresFromScheduledArrival(t *testing.T) {
	ms := time.Millisecond
	span := func(write bool, sched, call, ret time.Duration, err error) loadgen.Span {
		return loadgen.Span{Write: write, Sched: sched, Call: call, Ret: ret, Err: err}
	}
	var spans []loadgen.Span
	for i := range 100 { // 1 ms of service each; the last five issued 10 ms late
		at, late := time.Duration(i)*ms, time.Duration(0)
		if i >= 95 {
			late = 10 * ms
		}
		spans = append(spans, span(false, at, at+late, at+late+ms, nil))
	}
	spans = append(spans,
		span(true, 0, 0, 2*ms, nil),
		span(true, 50*ms, 50*ms, 50*ms+ms/2, errors.New("refused")), // would be the best write
		span(false, 60*ms, 60*ms, 500*ms, errors.New("timeout")),    // would be the worst read
	)
	r := summarize(2000, spans)
	want := map[string]any{
		"rate_ops_per_sec": 2000.0, "ops": len(spans), "errors": 2, "seconds": 0.5,
		"read_p50_ms": 1.0, "read_p95_ms": 1.0, "read_p99_ms": 11.0,
		"write_p50_ms": 2.0, "write_p95_ms": 2.0, "write_p99_ms": 2.0,
	}
	if len(r) != len(want) {
		t.Errorf("report has %d fields, want %d: %v", len(r), len(want), r)
	}
	for k, v := range want {
		if r[k] != v {
			t.Errorf("%s = %v, want %v", k, r[k], v)
		}
	}
}

func TestNoOperationOfAClassReportsZeros(t *testing.T) {
	r := summarize(10, []loadgen.Span{{Write: true, Ret: time.Millisecond}})
	if r["read_p50_ms"] != 0.0 || r["read_p99_ms"] != 0.0 || r["write_p50_ms"] != 1.0 {
		t.Fatalf("writes only, reported %v", r)
	}
}

func TestFramesPerFlush(t *testing.T) {
	if got := framesPerFlush(client.Stats{FramesSent: 700, Flushes: 100}); !strings.Contains(got, "7.00 frames per flush") {
		t.Fatalf("700 frames in 100 writes rendered as %q", got)
	}
}
