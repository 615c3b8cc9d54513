package main

import (
	"bytes"
	"fmt"
	"io"
	"net/url"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"
)

// addPprofRoutes adds -pprof's routes under /debug/pprof: the index, the
// command line, a CPU profile and an execution trace over ?seconds=, and
// each named profile (heap, goroutine, allocs, ...) with ?debug= and, for
// heap, ?gc=. They answer what net/http/pprof's handlers answer, from
// runtime/pprof and runtime/trace, bar two forms: /debug/pprof/symbol,
// whose lookup is a POST body (Go's profiles carry their symbols, so
// `go tool pprof` never asks), and a named profile's ?seconds= delta.
func addPprofRoutes(routes map[string]route) {
	routes["/debug/pprof/"] = route{"GET", "text/html; charset=utf-8", pprofIndex}
	routes["/debug/pprof/cmdline"] = route{"GET", "text/plain; charset=utf-8", func(w *bytes.Buffer, _ url.Values) error {
		_, err := io.WriteString(w, strings.Join(os.Args, "\x00"))
		return err
	}}
	routes["/debug/pprof/profile"] = route{"GET", "application/octet-stream", func(w *bytes.Buffer, q url.Values) error {
		sec, err := strconv.ParseInt(q.Get("seconds"), 10, 64)
		if sec <= 0 || err != nil {
			sec = 30
		}
		if err := pprof.StartCPUProfile(w); err != nil {
			return fmt.Errorf("could not enable CPU profiling: %w", err)
		}
		time.Sleep(time.Duration(sec) * time.Second)
		pprof.StopCPUProfile()
		return nil
	}}
	routes["/debug/pprof/trace"] = route{"GET", "application/octet-stream", func(w *bytes.Buffer, q url.Values) error {
		sec, err := strconv.ParseFloat(q.Get("seconds"), 64)
		if sec <= 0 || err != nil {
			sec = 1
		}
		if err := trace.Start(w); err != nil {
			return fmt.Errorf("could not enable tracing: %w", err)
		}
		time.Sleep(time.Duration(sec * float64(time.Second)))
		trace.Stop()
		return nil
	}}
	for _, p := range pprof.Profiles() {
		routes["/debug/pprof/"+p.Name()] = route{"GET", "", func(w *bytes.Buffer, q url.Values) error {
			if gc, _ := strconv.Atoi(q.Get("gc")); gc > 0 && p.Name() == "heap" {
				runtime.GC()
			}
			debug, _ := strconv.Atoi(q.Get("debug"))
			return p.WriteTo(w, debug)
		}}
	}
}

// pprofIndex lists the profiles, each linked to its text form.
func pprofIndex(w *bytes.Buffer, _ url.Values) error {
	fmt.Fprint(w, "<html><head><title>/debug/pprof/</title></head><body>\n<p>Profiles:</p>\n<ul>\n")
	for _, p := range pprof.Profiles() {
		fmt.Fprintf(w, "<li><a href=\"%s?debug=1\">%s</a> (%d)</li>\n", p.Name(), p.Name(), p.Count())
	}
	_, err := fmt.Fprint(w, "<li><a href=\"profile\">profile</a> (CPU, ?seconds=30)</li>\n"+
		"<li><a href=\"trace?seconds=1\">trace</a></li>\n<li><a href=\"cmdline\">cmdline</a></li>\n</ul>\n</body></html>\n")
	return err
}
