package metrics

import (
	"strings"
	"testing"
)

// TestWriteText pins the exposition format: HELP then TYPE then one line
// per point, series in the order given; counts print %d however large,
// floats %g; labels print in the order given; HELP text and label values
// are escaped; a series with no points still declares itself.
func TestWriteText(t *testing.T) {
	var b strings.Builder
	err := WriteText(&b, []Series{
		Counter("tasks_total", "Tasks run.", Int(12345678)),
		Gauge("late_seconds", `Lateness; a \ and a
newline.`, Float(15000/1e9)),
		Counter("ops_total", "Ops by kind.", Int(4, "op", "read", "shard", "2"), Int(1, "op", `w"r\ite`)),
		Gauge("empty", "No points."),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP tasks_total Tasks run.
# TYPE tasks_total counter
tasks_total 12345678
# HELP late_seconds Lateness; a \\ and a\nnewline.
# TYPE late_seconds gauge
late_seconds 1.5e-05
# HELP ops_total Ops by kind.
# TYPE ops_total counter
ops_total{op="read",shard="2"} 4
ops_total{op="w\"r\\ite"} 1
# HELP empty No points.
# TYPE empty gauge
`
	if got := b.String(); got != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", got, want)
	}
}
