package main

import (
	"io"
	"strings"
	"testing"

	"churnreg/internal/core"
	"churnreg/internal/shard"
	"churnreg/internal/sim"
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
		{"queue is undefined", []string{"-id", "1", "-queue", "64"}, "flag provided but not defined"},
		{"the mailbox is gone, and its knob", []string{"-id", "1", "-mailbox", "64"}, "flag provided but not defined"},
		{"ok sync", []string{"-id", "1", "-bootstrap"}, ""},
		{"the HTTP data path is gone, and its deadline", []string{"-id", "1", "-op-timeout", "5s"}, "flag provided but not defined"},
		{"multiwriter refused", []string{"-id", "2", "-protocol", "multiwriter"}, "unknown protocol"},
		{"ok abd sharded", []string{"-id", "2", "-protocol", "abd", "-shards", "8"}, ""},
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

// TestFactoryForCoversEveryProtocol: every protocol resolves, and its node
// is wrapped in the sharding layer exactly when -shards > 0.
func TestFactoryForCoversEveryProtocol(t *testing.T) {
	for _, p := range []string{"sync", "esync", "abd"} {
		for _, shards := range []int{0, 8} {
			f, err := factoryFor(p, shards)
			if err != nil || f == nil {
				t.Fatalf("factoryFor(%q, %d): %v", p, shards, err)
			}
			n := f(envStub{}, core.SpawnContext{Bootstrap: true})
			if _, wrapped := n.(*shard.Node); wrapped != (shards > 0) {
				t.Fatalf("factoryFor(%q, %d) built a %T", p, shards, n)
			}
			if _, ok := n.(core.Ops); !ok {
				t.Fatalf("factoryFor(%q, %d) built a %T, which serves no operations", p, shards, n)
			}
		}
	}
	if _, err := factoryFor("nope", 0); err == nil {
		t.Fatal("factoryFor accepted protocol \"nope\"")
	}
}

// envStub is a core.Env that goes nowhere: enough to build a node.
type envStub struct{}

func (envStub) ID() core.ProcessID                { return 1 }
func (envStub) Now() sim.Time                     { return 0 }
func (envStub) Send(core.ProcessID, core.Message) {}
func (envStub) Broadcast(core.Message)            {}
func (envStub) After(sim.Duration, func())        {}
func (envStub) Delta() sim.Duration               { return 1 }
func (envStub) SystemSize() int                   { return 3 }
func (envStub) MarkActive()                       {}
