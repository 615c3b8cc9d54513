package main

import (
	"io"
	"strings"
	"testing"

	"churnreg/internal/core"
)

func TestParseFlagsValidates(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the expected error ("" = ok)
	}{
		{"missing id", []string{"-listen", ":0"}, "-id must be > 0"},
		{"negative id", []string{"-id", "-3"}, "-id must be > 0"},
		{"bad protocol", []string{"-id", "1", "-protocol", "paxos"}, "unknown protocol"},
		{"bad n", []string{"-id", "1", "-n", "0"}, "-n must be > 0"},
		{"bad delta", []string{"-id", "1", "-delta", "0"}, "-delta must be >= 1"},
		{"bad queue", []string{"-id", "1", "-queue", "-1"}, "-queue must be >= 0"},
		{"the mailbox is gone, and its knob", []string{"-id", "1", "-mailbox", "64"}, "flag provided but not defined"},
		{"ok sync", []string{"-id", "1", "-bootstrap"}, ""},
		{"ok multiwriter", []string{"-id", "2", "-protocol", "multiwriter"}, ""},
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

func TestParseFlagsPeersList(t *testing.T) {
	cfg, err := parseFlags([]string{"-id", "1", "-peers", "a:1, b:2 ,,c:3"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.peers) != 3 || cfg.peers[0] != "a:1" || cfg.peers[1] != "b:2" || cfg.peers[2] != "c:3" {
		t.Fatalf("peers = %q", cfg.peers)
	}
}

func TestFactoryForCoversEveryProtocol(t *testing.T) {
	for _, p := range []string{"sync", "esync", "abd", "multiwriter"} {
		f, err := factoryFor(p)
		if err != nil || f == nil {
			t.Fatalf("factoryFor(%q): %v", p, err)
		}
	}
	if _, err := factoryFor("nope"); err == nil {
		t.Fatal("factoryFor accepted unknown protocol")
	}
}

func TestParseBatch(t *testing.T) {
	entries, err := parseBatch("3=30,1=10, 2=20")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.KeyedWrite{{Reg: 1, Val: 10}, {Reg: 2, Val: 20}, {Reg: 3, Val: 30}}
	if len(entries) != len(want) {
		t.Fatalf("entries = %v", entries)
	}
	for i := range want {
		if entries[i] != want[i] {
			t.Fatalf("entries[%d] = %v, want %v", i, entries[i], want[i])
		}
	}
	for _, bad := range []string{"", "x", "a=1", "1=b", "1=1,1=2"} {
		if _, err := parseBatch(bad); err == nil {
			t.Fatalf("parseBatch(%q) accepted", bad)
		}
	}
}
