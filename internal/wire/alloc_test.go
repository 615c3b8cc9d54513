package wire_test

// The allocation-ceiling regression tests behind the zero-alloc codec:
// steady-state encoding into a recycled buffer and the frame-scanning
// machinery must not touch the heap, and every message kind decodes with
// no allocation into a record the reader hands back, or into exactly one
// record of its own per frame for a reader that keeps its frames
// (everything else — payload buffers, headers, cursors — is reused).
// CI runs these in the main test job; they skip under -race, whose
// instrumentation perturbs allocation counts.

import (
	"bytes"
	"reflect"
	"testing"

	"churnreg/internal/core"
	"churnreg/internal/wire"
)

// hotMsgFrame is a representative hot-path frame: a WRITE broadcast, the
// message the coalescing benchmarks push by the hundred-thousand.
func hotMsgFrame() wire.Frame {
	return wire.Frame{
		Type: wire.FrameMsg,
		From: 7,
		Msg: &core.WriteMsg{
			From:  7,
			Value: core.VersionedValue{Val: 123456, SN: 42},
			Reg:   9,
			Op:    core.OpID(1337),
		},
	}
}

func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
}

func TestAppendFrameBytesZeroAllocs(t *testing.T) {
	skipIfRace(t)
	f := hotMsgFrame()
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		buf, err = wire.AppendFrameBytes(buf[:0], f)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendFrameBytes allocs/op = %v, want 0", allocs)
	}
}

// TestScannerZeroAllocsControlFrames proves the scanning machinery itself
// — header reads, payload buffer reuse, decoding — is allocation-free:
// LEAVE frames carry no message, so nothing needs an interface box.
func TestScannerZeroAllocsControlFrames(t *testing.T) {
	skipIfRace(t)
	const runs = 1000
	var stream []byte
	for i := 0; i < runs+10; i++ {
		var err error
		stream, err = wire.AppendFrameBytes(stream, wire.Frame{Type: wire.FrameLeave, From: 3})
		if err != nil {
			t.Fatal(err)
		}
	}
	s := wire.NewScanner(bytes.NewReader(stream))
	allocs := testing.AllocsPerRun(runs, func() {
		f, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.FrameLeave || f.From != 3 {
			t.Fatalf("scanned %+v", f)
		}
	})
	if allocs != 0 {
		t.Fatalf("Scanner.Next allocs/op = %v on control frames, want 0", allocs)
	}
}

// TestScannerZeroAllocsSessionFrames: a stream of any one kind — the six
// peer messages, a FORWARD, what a server reads from a client, and a
// FORWARDED, what a client reads back — decodes at 0 allocations per
// frame when the reader hands every frame back: the next one is decoded
// into the same record. A reader that keeps its frames gets exactly one
// record of its own per frame, and nothing else. A snapshot REPLY's Rest
// is a fresh slice per frame either way, so a kept one is never
// overwritten.
func TestScannerZeroAllocsSessionFrames(t *testing.T) {
	skipIfRace(t)
	const runs = 1000
	vv := core.VersionedValue{Val: 7, SN: 3}
	for _, tc := range []struct {
		name             string
		msg              core.Message
		handedBack, kept float64
	}{
		{"INQUIRY", &core.InquiryMsg{From: 2, Op: 9}, 0, 1},
		{"REPLY", &core.ReplyMsg{From: 2, Value: vv, Reg: 4, Op: 9}, 0, 1},
		{"snapshot REPLY", &core.ReplyMsg{From: 2, Value: vv, Reg: 4, Rest: []core.KeyedValue{{Reg: 5, Value: vv}}}, 1, 2},
		{"WRITE", &core.WriteMsg{From: 2, Value: vv, Reg: 4, Op: 9}, 0, 1},
		{"ACK", &core.AckMsg{From: 2, SN: 3, Reg: 4, Op: 9}, 0, 1},
		{"READ", &core.ReadMsg{From: 2, Reg: 4, Op: 9}, 0, 1},
		{"DL_PREV", &core.DLPrevMsg{From: 2, Reg: 4, Op: 9}, 0, 1},
		{"FORWARD", &core.ForwardMsg{Op: 9, Reg: 4, IsWrite: true, Val: 7}, 0, 1},
		{"FORWARDED", &core.ForwardedMsg{From: 2, Op: 9, Reg: 4, Value: vv}, 0, 1},
	} {
		var stream []byte
		for i := 0; i < 2*runs+10; i++ {
			var err error
			if stream, err = wire.AppendFrameBytes(stream, wire.Frame{Type: wire.FrameMsg, Msg: tc.msg}); err != nil {
				t.Fatal(err)
			}
		}
		s := wire.NewScanner(bytes.NewReader(stream))
		next := func() wire.Frame {
			f, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(f.Msg, tc.msg) {
				t.Fatalf("scanned %+v, want %+v", f.Msg, tc.msg)
			}
			return f
		}
		if allocs := testing.AllocsPerRun(runs, func() { s.Reuse(next()) }); allocs != tc.handedBack {
			t.Errorf("Scanner.Next allocs/op = %v on %s frames handed back, want %v", allocs, tc.name, tc.handedBack)
		}
		kept := make([]core.Message, 0, runs+1)
		if allocs := testing.AllocsPerRun(runs, func() { kept = append(kept, next().Msg) }); allocs != tc.kept {
			t.Errorf("Scanner.Next allocs/op = %v on %s frames kept, want %v", allocs, tc.name, tc.kept)
		}
		records := map[core.Message]bool{}
		for _, m := range kept {
			if records[m] = true; !reflect.DeepEqual(m, tc.msg) {
				t.Fatalf("kept %s frame now reads %+v, want %+v", tc.name, m, tc.msg)
			}
		}
		if len(records) != runs+1 {
			t.Errorf("%d kept %s frames share %d records", runs+1, tc.name, len(records))
		}
	}
}

// TestBufferPoolRoundTrip exercises the frame-buffer pool contract: a
// recycled buffer comes back empty, and oversized buffers are dropped
// rather than pinned.
func TestBufferPoolRoundTrip(t *testing.T) {
	b := wire.GetBuffer()
	if len(*b) != 0 {
		t.Fatalf("pooled buffer len = %d, want 0", len(*b))
	}
	*b = append(*b, 1, 2, 3)
	wire.PutBuffer(b)
	c := wire.GetBuffer()
	if len(*c) != 0 {
		t.Fatalf("recycled buffer len = %d, want 0", len(*c))
	}
	wire.PutBuffer(c)
	huge := make([]byte, 0, 1<<20)
	wire.PutBuffer(&huge) // must not panic; silently dropped
	wire.PutBuffer(nil)   // nil is a no-op
}

// TestAppendFrameBytesMatchesWriteFrame pins the coalescing append path
// to the one-frame write: byte-for-byte identical, so a remote cannot
// tell batched frames from per-frame writes.
func TestAppendFrameBytesMatchesWriteFrame(t *testing.T) {
	frames := []wire.Frame{
		hotMsgFrame(),
		{Type: wire.FrameHello, From: 2, Addr: "127.0.0.1:9999"},
		{Type: wire.FramePeers, Peers: []wire.Peer{{ID: 4, Addr: "10.0.0.1:1"}}},
		{Type: wire.FrameLeave, From: 11},
	}
	var batched []byte
	var canonical bytes.Buffer
	for _, f := range frames {
		var err error
		batched, err = wire.AppendFrameBytes(batched, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(&canonical, f); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(batched, canonical.Bytes()) {
		t.Fatalf("AppendFrameBytes stream differs from WriteFrame stream\n got %x\nwant %x", batched, canonical.Bytes())
	}
	// And the canonical reader must scan the batched stream unchanged.
	s := wire.NewScanner(bytes.NewReader(batched))
	for i := range frames {
		f, err := s.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != frames[i].Type {
			t.Fatalf("frame %d type = %v, want %v", i, f.Type, frames[i].Type)
		}
	}
}

// TestScannerHasFrame pins the accessor a reader uses to tell "more of the
// batch the remote flushed" from "wait for the network": true exactly when
// the next Next would not read from the connection, and free. Each case is
// what one read left in the buffer behind a first frame.
func TestScannerHasFrame(t *testing.T) {
	frame, err := wire.AppendFrameBytes(nil, hotMsgFrame())
	if err != nil {
		t.Fatal(err)
	}
	if wire.NewScanner(bytes.NewReader(frame)).HasFrame() {
		t.Fatal("HasFrame on a scanner that has read nothing: it must not read to find out")
	}
	for _, c := range []struct {
		name   string
		behind []byte
		want   bool
	}{
		{"empty buffer", nil, false},
		{"3 of 4 header bytes", frame[:3], false},
		{"header without payload", frame[:4], false},
		{"all but the last byte", frame[:len(frame)-1], false},
		{"exactly one frame", frame, true},
		{"a frame and a half", append(append([]byte(nil), frame...), frame[:len(frame)/2]...), true},
	} {
		s := wire.NewScanner(bytes.NewReader(append(append([]byte(nil), frame...), c.behind...)))
		if _, err := s.Next(); err != nil {
			t.Fatalf("%s: first frame: %v", c.name, err)
		}
		got := s.HasFrame()
		allocs := 0.0
		if !raceEnabled {
			allocs = testing.AllocsPerRun(100, func() { got = s.HasFrame() })
		}
		if got != c.want || allocs != 0 {
			t.Errorf("%s: HasFrame = %v (%v allocs), want %v and 0", c.name, got, allocs, c.want)
		}
		if !c.want {
			continue
		}
		if _, err := s.Next(); err != nil {
			t.Fatalf("%s: the frame HasFrame promised: %v", c.name, err)
		}
		if s.HasFrame() {
			t.Errorf("%s: HasFrame still true with less than a frame left", c.name)
		}
	}
}
