// Package trace records structured timelines of simulated runs: message
// sends/deliveries, process lifecycle transitions, and protocol-level
// annotations, rendered as a per-tick text timeline. It exists for humans
// debugging protocol behaviour (a single cmd/regsim run with -trace N) and
// for tests that assert on event sequences.
package trace

import (
	"fmt"
	"io"

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

// Len returns the number of stored events.
func (l *Log) Len() int { return len(l.events) }

// Events returns the stored events (live slice; do not mutate).
func (l *Log) Events() []Event { return l.events }

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
