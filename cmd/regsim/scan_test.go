package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestScanEmitsCSV(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"scan", "-protocol", "sync", "-n", "10", "-duration", "200",
		"-steps", "2", "-seeds", "1", "-max-mult", "0.5"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 churn values × 1 seed
		t.Fatalf("lines = %d, want 4:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "protocol,c,") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	for _, ln := range lines[1:] {
		if !strings.HasPrefix(ln, "sync,") {
			t.Fatalf("row wrong: %q", ln)
		}
		if got := strings.Count(ln, ","); got != 12 {
			t.Fatalf("row has %d commas, want 12: %q", got, ln)
		}
	}
}

func TestScanESync(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"scan", "-protocol", "esync", "-n", "8", "-duration", "200",
		"-steps", "1", "-seeds", "1", "-max-mult", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "esync,") {
		t.Fatalf("no esync rows:\n%s", buf.String())
	}
}

func TestScanUnknownProtocol(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"scan", "-protocol", "nope"}, &buf); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}
