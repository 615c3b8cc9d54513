// Package trace records structured timelines of simulated runs: message
// sends/deliveries, process lifecycle transitions, and protocol-level
// annotations, rendered as a per-tick text timeline. It exists for humans
// debugging protocol behaviour (a single cmd/regsim run with -trace N) and
// for tests that assert on event sequences.
package trace

import (
	"fmt"
	"io"
	"strings"

	"churnreg/internal/core"
	"churnreg/internal/netsim"
	"churnreg/internal/sim"
)

// EventKind classifies timeline entries.
type EventKind int

// Event kinds.
const (
	KindSend EventKind = iota + 1
	KindDeliver
	KindDrop
	KindEnter
	KindActive
	KindLeave
	KindNote
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindDeliver:
		return "deliver"
	case KindDrop:
		return "drop"
	case KindEnter:
		return "enter"
	case KindActive:
		return "active"
	case KindLeave:
		return "leave"
	case KindNote:
		return "note"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one timeline entry.
type Event struct {
	At     sim.Time
	Kind   EventKind
	Proc   core.ProcessID // subject process (sender, joiner, leaver)
	Peer   core.ProcessID // counterparty (receiver) when applicable
	Msg    core.MsgKind   // message kind for send/deliver/drop
	Detail string         // free-form annotation
}

// String renders one event line.
func (e Event) String() string {
	switch e.Kind {
	case KindSend:
		return fmt.Sprintf("%-6s %s %s → %s", e.At, e.Kind, e.Proc, e.Peer) + msgSuffix(e)
	case KindDeliver, KindDrop:
		return fmt.Sprintf("%-6s %s %s ← %s", e.At, e.Kind, e.Peer, e.Proc) + msgSuffix(e)
	case KindNote:
		return fmt.Sprintf("%-6s note  %s: %s", e.At, e.Proc, e.Detail)
	default:
		s := fmt.Sprintf("%-6s %s %s", e.At, e.Kind, e.Proc)
		if e.Detail != "" {
			s += " (" + e.Detail + ")"
		}
		return s
	}
}

func msgSuffix(e Event) string {
	if e.Msg == 0 {
		return ""
	}
	return " " + e.Msg.String()
}

// Log accumulates events. Not safe for concurrent use (simulation runs are
// single-threaded).
type Log struct {
	events []Event
	// Cap bounds memory; once reached, further events are counted but not
	// stored. 0 means unbounded.
	Cap       int
	truncated uint64
}

// New returns a log bounded at cap events (0 = unbounded).
func New(cap int) *Log { return &Log{Cap: cap} }

// Append records an event.
func (l *Log) Append(e Event) {
	if l.Cap > 0 && len(l.events) >= l.Cap {
		l.truncated++
		return
	}
	l.events = append(l.events, e)
}

// Note records a free-form annotation for a process.
func (l *Log) Note(at sim.Time, proc core.ProcessID, format string, args ...any) {
	l.Append(Event{At: at, Kind: KindNote, Proc: proc, Detail: fmt.Sprintf(format, args...)})
}

// Len returns the number of stored events.
func (l *Log) Len() int { return len(l.events) }

// Truncated returns how many events were dropped by the cap.
func (l *Log) Truncated() uint64 { return l.truncated }

// Events returns the stored events (live slice; do not mutate).
func (l *Log) Events() []Event { return l.events }

// Filter returns stored events satisfying keep.
func (l *Log) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range l.events {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// CountKind tallies events of one kind.
func (l *Log) CountKind(k EventKind) int {
	n := 0
	for _, e := range l.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Render writes the timeline to w, one event per line, in recorded order
// (which is timestamp order — the simulator appends monotonically).
func (l *Log) Render(w io.Writer) error {
	for _, e := range l.events {
		if _, err := io.WriteString(w, e.String()+"\n"); err != nil {
			return err
		}
	}
	if l.truncated > 0 {
		if _, err := fmt.Fprintf(w, "... %d further events truncated (cap %d)\n", l.truncated, l.Cap); err != nil {
			return err
		}
	}
	return nil
}

// RenderString renders the timeline into a string.
func (l *Log) RenderString() string {
	var b strings.Builder
	_ = l.Render(&b)
	return b.String()
}

// NetTap adapts the log to netsim's trace hook: install with
// net.SetTrace(trace.NetTap(log)).
func NetTap(l *Log) netsim.TraceFunc {
	return func(ev netsim.TraceEvent) {
		e := Event{At: ev.At, Proc: ev.From, Peer: ev.To, Msg: ev.Kind}
		switch {
		case ev.Dropped:
			e.Kind = KindDrop
		case ev.Delivered:
			e.Kind = KindDeliver
		default:
			e.Kind = KindSend
		}
		l.Append(e)
	}
}
