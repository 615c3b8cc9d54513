package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSyncProtocol(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-protocol", "sync", "-n", "10", "-duration", "300", "-churn", "0.01"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"REGULAR VIOLATIONS", "joins completed", "messages sent"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "REGULAR VIOLATIONS                     0") {
		t.Fatalf("violations below the bound:\n%s", out)
	}
}

func TestRunESyncWithGST(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-protocol", "esync", "-n", "8", "-duration", "500",
		"-churn", "0.001", "-gst", "100", "-min-lifetime", "15"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "esync") {
		t.Fatalf("header missing protocol:\n%s", buf.String())
	}
}

func TestRunABDBaseline(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "abd", "-n", "8", "-duration", "300", "-churn", "0"}, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithTrace(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "5", "-duration", "100", "-trace", "10"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== timeline ==") || !strings.Contains(out, "send") {
		t.Fatalf("trace output missing:\n%s", out)
	}
}

func TestUnknownProtocolErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "paxos"}, &buf); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

// TestStrayArgumentErrors: a positional argument left after the flags —
// a subcommand named after a flag, an unknown subcommand, an experiment id
// without -only — is an error, not an argument silently ignored.
func TestStrayArgumentErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "5", "scan"},
		{"bogus", "-n", "5"},
		{"experiments", "E4"},
	} {
		var buf bytes.Buffer
		err := run(args, &buf)
		if err == nil {
			t.Errorf("run(%q) = nil, want an error", args)
		} else if !strings.Contains(err.Error(), "scan, experiments") {
			t.Errorf("run(%q) = %v, want an error naming the subcommands", args, err)
		}
	}
}
