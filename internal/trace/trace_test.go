package trace_test

import (
	"strings"
	"testing"

	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/netsim"
	"churnreg/internal/syncreg"
	"churnreg/internal/trace"
)

func newTracedSystem(t *testing.T, log *trace.Log) *dynsys.System {
	t.Helper()
	sys, err := dynsys.New(dynsys.Config{
		N:       3,
		Delta:   5,
		Model:   netsim.SynchronousModel{Delta: 5},
		Factory: syncreg.Factory(syncreg.Options{}),
		Seed:    1,
		Initial: core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	trace.Attach(sys, log)
	return sys
}

// render is the log's timeline as a string.
func render(l *trace.Log) string {
	var b strings.Builder
	_ = l.Render(&b)
	return b.String()
}

// count tallies the stored events of one kind.
func count(l *trace.Log, k trace.EventKind) int {
	n := 0
	for _, e := range l.Events() {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func TestTimelineCapturesJoinSequence(t *testing.T) {
	log := trace.New(0)
	sys := newTracedSystem(t, log)
	id, _ := sys.Spawn()
	if err := sys.RunFor(20); err != nil {
		t.Fatal(err)
	}
	// The joiner must appear as: enter, INQUIRY sends, REPLY deliveries,
	// active.
	var sawEnter, sawInquiry, sawReply, sawActive bool
	for _, e := range log.Events() {
		switch {
		case e.Kind == trace.KindEnter && e.Proc == id:
			sawEnter = true
		case e.Kind == trace.KindSend && e.Proc == id && e.Msg == core.KindInquiry:
			sawInquiry = true
		case e.Kind == trace.KindDeliver && e.Peer == id && e.Msg == core.KindReply:
			sawReply = true
		case e.Kind == trace.KindActive && e.Proc == id:
			sawActive = true
		}
	}
	if !sawEnter || !sawInquiry || !sawReply || !sawActive {
		t.Fatalf("timeline missing join phases: enter=%v inquiry=%v reply=%v active=%v\n%s",
			sawEnter, sawInquiry, sawReply, sawActive, render(log))
	}
}

func TestTimelineCapturesDeparture(t *testing.T) {
	log := trace.New(0)
	sys := newTracedSystem(t, log)
	sys.KillProcess(2)
	if got := count(log, trace.KindLeave); got != 1 {
		t.Fatalf("leave events = %d, want 1", got)
	}
}

func TestTimelineCapturesDrops(t *testing.T) {
	log := trace.New(0)
	sys := newTracedSystem(t, log)
	writer := sys.Node(1).(*syncreg.Node)
	if err := writer.Write(0, 1, ignoreWrite); err != nil {
		t.Fatal(err)
	}
	sys.KillProcess(3) // in-flight WRITE to p3 drops
	if err := sys.RunFor(20); err != nil {
		t.Fatal(err)
	}
	if count(log, trace.KindDrop) == 0 {
		t.Fatalf("no drop recorded:\n%s", render(log))
	}
}

func TestLogCapTruncates(t *testing.T) {
	log := trace.New(5)
	sys := newTracedSystem(t, log)
	writer := sys.Node(1).(*syncreg.Node)
	for i := 0; i < 5; i++ {
		if err := writer.Write(0, core.Value(i), ignoreWrite); err != nil {
			t.Fatal(err)
		}
		if err := sys.RunFor(10); err != nil {
			t.Fatal(err)
		}
	}
	if log.Len() != 5 {
		t.Fatalf("stored = %d, want cap 5", log.Len())
	}
	if !strings.Contains(render(log), "further events truncated (cap 5)") {
		t.Fatalf("render does not count the truncation:\n%s", render(log))
	}
}

func TestEventStrings(t *testing.T) {
	cases := []trace.Event{
		{At: 1, Kind: trace.KindSend, Proc: 1, Peer: 2, Msg: core.KindWrite},
		{At: 2, Kind: trace.KindDeliver, Proc: 1, Peer: 2, Msg: core.KindWrite},
		{At: 3, Kind: trace.KindDrop, Proc: 1, Peer: 2, Msg: core.KindAck},
		{At: 4, Kind: trace.KindEnter, Proc: 5},
		{At: 5, Kind: trace.KindActive, Proc: 5},
		{At: 6, Kind: trace.KindLeave, Proc: 5, Detail: "churn"},
	}
	for _, e := range cases {
		if e.String() == "" {
			t.Fatalf("empty render for %+v", e)
		}
	}
	if trace.KindSend.String() != "send" || trace.KindLeave.String() != "leave" {
		t.Fatal("kind names wrong")
	}
}

// ignoreWrite is a write's done callback for a test that does not look
// at the outcome.
func ignoreWrite(core.VersionedValue, error) {}
