package metrics

import (
	"fmt"
	"io"
	"strings"
)

// ContentType is the HTTP Content-Type of WriteText's output: the
// Prometheus text exposition format, version 0.0.4.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Series is one metric family of the exposition: a name, its HELP text,
// its TYPE ("counter" or "gauge") and its points. A daemon declares the
// series it exports as one ordered list, built per scrape from the
// counters it reads; there is no registry.
type Series struct {
	Name, Help, Type string
	Points           []Point
}

// Counter declares a series that only grows.
func Counter(name, help string, points ...Point) Series {
	return Series{Name: name, Help: help, Type: "counter", Points: points}
}

// Gauge declares a series that may go up and down.
func Gauge(name, help string, points ...Point) Series {
	return Series{Name: name, Help: help, Type: "gauge", Points: points}
}

// Point is one sample of a series: its labels, as name/value pairs in the
// order they print, and its value in exposition form.
type Point struct {
	labels []string
	value  string
}

// Int is a point whose value prints %d: a count stays exact however large
// it grows, where %g would print 12345678 as 1.2345678e+07.
func Int(v uint64, labels ...string) Point { return Point{labels, fmt.Sprintf("%d", v)} }

// Float is a point whose value prints %g: ratios and seconds.
func Float(v float64, labels ...string) Point { return Point{labels, fmt.Sprintf("%g", v)} }

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

// WriteText renders series in order, each as its HELP line, its TYPE line
// and one line per point, in a single write to w.
func WriteText(w io.Writer, series []Series) error {
	var b strings.Builder
	for _, s := range series {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", s.Name, helpEscaper.Replace(s.Help), s.Name, s.Type)
		for _, p := range s.Points {
			b.WriteString(s.Name)
			sep := "{"
			for i := 0; i+1 < len(p.labels); i += 2 {
				fmt.Fprintf(&b, `%s%s="%s"`, sep, p.labels[i], labelEscaper.Replace(p.labels[i+1]))
				sep = ","
			}
			if sep == "," {
				b.WriteString("}")
			}
			b.WriteString(" " + p.value + "\n")
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
