package main

import (
	"io"
	"strings"
	"testing"

	"churnreg/client"
)

func TestParseFlagsValidates(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the expected error ("" = ok)
	}{
		{"wire needs seeds", []string{"-mode", "wire"}, "-seeds"},
		{"http needs api", []string{"-mode", "http"}, "-api"},
		{"unknown mode", []string{"-mode", "udp", "-seeds", "a:1"}, "unknown -mode"},
		{"bad rate", []string{"-seeds", "a:1", "-rate", "0"}, "must be > 0"},
		{"bad write frac", []string{"-seeds", "a:1", "-write-frac", "1.5"}, "-write-frac"},
		{"ok wire", []string{"-seeds", "a:1,b:2"}, ""},
		{"ok http", []string{"-mode", "http", "-api", "a:1"}, ""},
		{"compare needs no addresses", []string{"-compare"}, ""},
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

func TestFramesPerFlush(t *testing.T) {
	if got := framesPerFlush(client.Stats{FramesSent: 700, Flushes: 100}); !strings.Contains(got, "7.00 frames per flush") {
		t.Fatalf("700 frames in 100 writes rendered as %q", got)
	}
}
