//go:build linux

package layers

import (
	"math"
	"reflect"
	"testing"
)

// TestCountsRepeat: the simulator's counts are the same on every run, so
// a later change may rest a claim on them.
func TestCountsRepeat(t *testing.T) {
	a, err := Counts()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Counts()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs counted differently:\n%v\n%v", a, b)
	}
	for _, m := range a {
		if m.Value <= 0 {
			t.Errorf("%s = %v", m.Name, m.Value)
		}
	}
}

func TestEveryLegReports(t *testing.T) {
	ms, err := Measure()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if seen[m.Name] {
			t.Errorf("%s reported twice", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || math.IsNaN(m.Value) || m.Value <= 0 {
			t.Errorf("%s = %v %q", m.Name, m.Value, m.Unit)
		}
	}
	// A read of the reference cluster: FORWARD, two READs out, two REPLYs
	// back, FORWARDED. The loopback copies never reach a socket.
	if !seen["wire.bytes_per_read_op"] || !seen["nodeops.read_p50_us"] || !seen["net.loopback_rtt_us"] {
		t.Errorf("legs missing from %v", ms)
	}
}
