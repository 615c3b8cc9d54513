package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestListExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"experiments", "-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"E1", "E5", "E10", "E12"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list output missing %s:\n%s", id, out)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"experiments", "-only", "E1", "-seed", "7"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E1 — Figure 3") || !strings.Contains(out, "VIOLATION") {
		t.Fatalf("E1 output unexpected:\n%s", out)
	}
}

func TestRunSingleExperimentMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"experiments", "-only", "E2", "-markdown"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "|---|") {
		t.Fatalf("markdown output lacks a table rule:\n%s", buf.String())
	}
}

// TestSeed42Golden pins the simulator's whole output: every experiment
// table at seed 42 must match testdata/seed42.txt byte for byte. A change
// that means to alter a table regenerates the file and says why.
func TestSeed42Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment (about 15 s)")
	}
	want, err := os.ReadFile("testdata/seed42.txt")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"experiments", "-seed", "42"}, &buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		line := 0
		for line < len(gl) && line < len(wl) && gl[line] == wl[line] {
			line++
		}
		var g, w string
		if line < len(gl) {
			g = gl[line]
		}
		if line < len(wl) {
			w = wl[line]
		}
		t.Fatalf("output differs from testdata/seed42.txt at line %d:\n got %q\nwant %q\n"+
			"if the change is intended, regenerate the file with\n"+
			"  go run ./cmd/regsim experiments -seed 42 > cmd/regsim/testdata/seed42.txt",
			line+1, g, w)
	}
}

func TestUnknownExperimentErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"experiments", "-only", "E99"}, &buf); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestBadFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	fsOut := &buf
	if err := run([]string{"experiments", "-definitely-not-a-flag"}, fsOut); err == nil {
		t.Fatal("bad flag accepted")
	}
}
