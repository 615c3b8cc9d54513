// Package metrics provides the small statistics and table-rendering
// toolkit every experiment uses: exact-quantile samples, counters, and
// aligned plain-text tables (the repository's equivalent of the paper's
// figures, rendered as rows). It also renders the Prometheus text
// exposition of counters and gauges (exposition.go) that a daemon's
// /metrics endpoint serves.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample accumulates float64 observations and answers exact order
// statistics (experiments are small enough that keeping every observation
// is cheaper than being clever).
type Sample struct {
	values []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// AddInt records an integer observation.
func (s *Sample) AddInt(v int64) { s.Add(float64(v)) }

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.values) }

// Sum returns the sum of observations.
func (s *Sample) Sum() float64 {
	var t float64
	for _, v := range s.values {
		t += v
	}
	return t
}

// Mean returns the average (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.values))
}

// Min returns the smallest observation (0 when empty).
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[0]
}

// Max returns the largest observation (0 when empty).
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[len(s.values)-1]
}

// Quantile returns the q-th exact quantile (nearest-rank), q in [0, 1].
func (s *Sample) Quantile(q float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	if q <= 0 {
		return s.values[0]
	}
	if q >= 1 {
		return s.values[len(s.values)-1]
	}
	idx := int(math.Ceil(q*float64(len(s.values)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s.values[idx]
}

// Stddev returns the population standard deviation (0 when < 2 samples).
func (s *Sample) Stddev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Table is an aligned plain-text table with a title and footnotes.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; missing cells render empty, extra cells are kept
// (and widen the table).
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render produces the aligned text form.
func (t *Table) Render() string {
	ncols := len(t.Columns)
	for _, r := range t.Rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	cell := func(row []string, i int) string {
		if i < len(row) {
			return row[i]
		}
		return ""
	}
	for i := 0; i < ncols; i++ {
		w := len([]rune(cell(t.Columns, i)))
		for _, r := range t.Rows {
			if l := len([]rune(cell(r, i))); l > w {
				w = l
			}
		}
		widths[i] = w
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(row []string) {
		for i := 0; i < ncols; i++ {
			if i > 0 {
				b.WriteString("  ")
			}
			c := cell(row, i)
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len([]rune(c))))
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(ncols-1)))
	b.WriteString("\n")
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// RenderMarkdown produces a GitHub-flavoured markdown table.
func (t *Table) RenderMarkdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	writeRow := func(cells []string, ncols int) {
		b.WriteString("|")
		for i := 0; i < ncols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			b.WriteString(" " + strings.ReplaceAll(c, "|", "\\|") + " |")
		}
		b.WriteString("\n")
	}
	ncols := len(t.Columns)
	for _, r := range t.Rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	writeRow(t.Columns, ncols)
	b.WriteString("|")
	for i := 0; i < ncols; i++ {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		writeRow(r, ncols)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*note: %s*\n", n)
	}
	return b.String()
}

// F formats a float with prec decimals.
func F(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v)
}

// D formats an integer.
func D(v int64) string { return fmt.Sprintf("%d", v) }

// Pct formats a ratio as a percentage with one decimal.
func Pct(num, den float64) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*num/den)
}
