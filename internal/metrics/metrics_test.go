package metrics

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Count() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty sample must answer zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.Count() != 5 || s.Sum() != 15 || s.Mean() != 3 {
		t.Fatalf("count/sum/mean = %d/%v/%v", s.Count(), s.Sum(), s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Quantile(0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 5 {
		t.Fatalf("q1 = %v, want 5", got)
	}
}

func TestSampleAddAfterQuantile(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Quantile(0.5)
	s.Add(1)
	if s.Min() != 1 {
		t.Fatal("sample did not re-sort after Add")
	}
}

// Property: quantile is monotone in q and bounded by [Min, Max].
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		var s Sample
		for _, v := range vals {
			if v != v { // NaN breaks ordering; irrelevant for metrics
				return true
			}
			s.Add(v)
		}
		prev := s.Quantile(0)
		for q := 0.1; q <= 1.0; q += 0.1 {
			cur := s.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return s.Quantile(0) == s.Min() && s.Quantile(1) == s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer-name", "23")
	tb.AddNote("n=%d", 2)
	out := tb.Render()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title, header, rule, 2 rows, note
	if len(lines) != 6 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[5], "note: n=2") {
		t.Fatalf("note missing: %q", lines[5])
	}
	// Columns align: "value" column starts at the same offset in each row.
	hdr := strings.Index(lines[1], "value")
	for _, ln := range lines[3:5] {
		cell := strings.TrimSpace(ln[hdr:])
		if cell != "1" && cell != "23" {
			t.Fatalf("misaligned row %q (offset %d)", ln, hdr)
		}
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("1")
	tb.AddRow("1", "2", "3")
	out := tb.Render()
	if !strings.Contains(out, "3") {
		t.Fatalf("extra cell dropped:\n%s", out)
	}
}

func TestTableRenderMarkdown(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("a|b", "1")
	tb.AddNote("footnote")
	out := tb.RenderMarkdown()
	for _, want := range []string{
		"**demo**",
		"| name | value |",
		"|---|---|",
		`| a\|b | 1 |`,
		"*note: footnote*",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestFormatters(t *testing.T) {
	if F(1.2345, 2) != "1.23" {
		t.Fatal("F wrong")
	}
	if D(42) != "42" {
		t.Fatal("D wrong")
	}
}
