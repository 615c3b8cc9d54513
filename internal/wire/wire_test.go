package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"churnreg/internal/core"
)

// encode renders f as DecodeFrame reads it: AppendFrameBytes's output
// without the length prefix.
func encode(t testing.TB, f Frame) []byte {
	t.Helper()
	b, err := AppendFrameBytes(nil, f)
	if err != nil {
		t.Fatalf("encode %+v: %v", f, err)
	}
	return b[4:]
}

// sender is the From field every message kind carries.
func sender(m core.Message) core.ProcessID {
	return reflect.ValueOf(m).FieldByName("From").Interface().(core.ProcessID)
}

// roundTrip carries m through one MSG frame and back, and checks that the
// decoded frame names the message's sender.
func roundTrip(t testing.TB, m core.Message) core.Message {
	t.Helper()
	f, err := DecodeFrame(encode(t, Frame{Type: FrameMsg, Msg: m}))
	if err != nil {
		t.Fatalf("%v: decode: %v", m.Kind(), err)
	}
	if f.From != sender(m) {
		t.Fatalf("%v: frame From = %v, want the message's sender %v", m.Kind(), f.From, sender(m))
	}
	return f.Msg
}

// randMessage draws one message of each kind in rotation with randomized
// fields, including batched join snapshots.
func randMessage(rng *rand.Rand, kind core.MsgKind) core.Message {
	vv := func() core.VersionedValue {
		return core.VersionedValue{Val: core.Value(rng.Int63() - rng.Int63()), SN: core.SeqNum(rng.Int63n(1 << 40))}
	}
	kvs := func(n int) []core.KeyedValue {
		if n == 0 {
			return nil
		}
		out := make([]core.KeyedValue, n)
		for i := range out {
			out[i] = core.KeyedValue{Reg: core.RegisterID(rng.Int63n(1 << 20)), Value: vv()}
		}
		return out
	}
	from := core.ProcessID(rng.Int63n(1 << 30))
	op := func() core.OpID { return core.OpID(rng.Uint64() >> rng.Intn(64)) }
	switch kind {
	case core.KindInquiry:
		return core.InquiryMsg{From: from, Op: op()}
	case core.KindReply:
		return core.ReplyMsg{From: from, Value: vv(),
			Reg: core.RegisterID(rng.Int63n(1 << 20)), Op: op(), Rest: kvs(rng.Intn(64))}
	case core.KindWrite:
		return core.WriteMsg{From: from, Value: vv(), Reg: core.RegisterID(rng.Int63n(1 << 20)), Op: op()}
	case core.KindAck:
		return core.AckMsg{From: from, SN: core.SeqNum(rng.Int63n(1 << 40)), Reg: core.RegisterID(rng.Int63n(1 << 20)), Op: op()}
	case core.KindRead:
		return core.ReadMsg{From: from, Reg: core.RegisterID(rng.Int63n(1 << 20)), Op: op()}
	case core.KindDLPrev:
		return core.DLPrevMsg{From: from, Reg: core.RegisterID(rng.Int63n(1 << 20)), Op: op()}
	case core.KindForward:
		return core.ForwardMsg{From: from, Op: op(), Reg: core.RegisterID(rng.Int63n(1 << 20)),
			IsWrite: rng.Intn(2) == 0, Val: core.Value(rng.Int63() - rng.Int63())}
	case core.KindForwarded:
		return core.ForwardedMsg{From: from, Op: op(), Reg: core.RegisterID(rng.Int63n(1 << 20)),
			Value: vv(), Code: core.ForwardCode(rng.Intn(4))}
	default:
		panic("unknown kind")
	}
}

var allKinds = []core.MsgKind{
	core.KindInquiry, core.KindReply, core.KindWrite, core.KindAck,
	core.KindRead, core.KindDLPrev, core.KindForward, core.KindForwarded,
}

// TestKindBytesArePinned pins each kind's byte to ARCHITECTURE.md's wire
// table: 7–10 are reserved, so no later kind moves.
func TestKindBytesArePinned(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var got []byte
	for _, kind := range allKinds {
		got = append(got, encode(t, Frame{Type: FrameMsg, Msg: randMessage(rng, kind)})[2])
	}
	if want := []byte{1, 2, 3, 4, 5, 6, 11, 12}; !bytes.Equal(got, want) {
		t.Fatalf("kind bytes = %v, want %v", got, want)
	}
}

func TestMessageRoundTripEveryKind(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, kind := range allKinds {
		for trial := 0; trial < 200; trial++ {
			m := randMessage(rng, kind)
			if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
				t.Fatalf("%v: round trip mismatch:\n in: %#v\nout: %#v", kind, m, got)
			}
		}
	}
}

func TestMessageRoundTripBoundaryValues(t *testing.T) {
	// Extremes: negative sentinels (BottomSN, NoProcess), zero values,
	// max int64, a handoff tag.
	msgs := []core.Message{
		core.InquiryMsg{From: core.NoProcess, Op: core.NoOp},
		core.InquiryMsg{From: 4, Op: core.HandoffOp(7)},
		core.ReplyMsg{From: 1, Value: core.Bottom(), Op: core.HandoffOp(0), Reg: core.DefaultRegister},
		core.ReplyMsg{From: 1<<62 - 1, Value: core.VersionedValue{Val: -1 << 62, SN: 1<<62 - 1},
			Op: 1<<62 - 1, Reg: 1<<62 - 1,
			Rest: []core.KeyedValue{{Reg: -5, Value: core.Bottom()}}},
		core.WriteMsg{From: 3, Value: core.VersionedValue{Val: -9, SN: 0}, Reg: 0, Op: 1<<64 - 1},
		core.AckMsg{From: 2, SN: core.BottomSN, Reg: -1, Op: core.NoOp},
	}
	for _, m := range msgs {
		if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", m, got)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	frames := []Frame{
		{Type: FrameHello, From: 42, Addr: "127.0.0.1:7001"},
		{Type: FrameHello, From: 43, Addr: "127.0.0.1:7002", Active: true},
		{Type: FrameHello, From: 1, Addr: ""},
		{Type: FrameHello, From: 0, Role: RoleClient},
		{Type: FrameLeave, From: 9},
		{Type: FramePeers},
		{Type: FramePeers, Peers: []Peer{{ID: 1, Addr: "10.0.0.1:9"}, {ID: 2, Addr: "[::1]:80", Active: true}}},
		{Type: FrameViewReq},
		{Type: FrameView, ViewVersion: 0, Shards: 0, Replication: 0},
		{Type: FrameView, ViewVersion: 17, Shards: 8, Replication: 3,
			Peers: []Peer{{ID: 1, Addr: "10.0.0.1:9"}, {ID: 2, Addr: "[::1]:80"}, {ID: 3, Addr: "c:3"}}},
	}
	for _, kind := range allKinds {
		m := randMessage(rng, kind)
		frames = append(frames, Frame{Type: FrameMsg, From: sender(m), Msg: m})
	}
	for _, f := range frames {
		got, err := DecodeFrame(encode(t, f))
		if err != nil {
			t.Fatalf("decode %+v: %v", f, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("frame round trip mismatch:\n in: %#v\nout: %#v", f, got)
		}
	}
}

func TestWriteReadFrameStream(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var buf bytes.Buffer
	var sent []Frame
	for i := 0; i < 100; i++ {
		m := randMessage(rng, allKinds[i%len(allKinds)])
		f := Frame{Type: FrameMsg, From: sender(m), Msg: m}
		sent = append(sent, f)
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("write frame %d: %v", i, err)
		}
	}
	s := NewScanner(&buf)
	for i, want := range sent {
		got, err := s.Next()
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d mismatch:\n in: %#v\nout: %#v", i, want, got)
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestMsgFrameNamesItsSenderOnce pins v5's MSG layout: the body is the
// message alone, so a READ frame is its 4-byte length, version and frame
// type, kind, sender, register and op — 31 bytes. An encoder ignores
// Frame.From; a decoder sets it from the message's sender.
func TestMsgFrameNamesItsSenderOnce(t *testing.T) {
	read := core.ReadMsg{From: 3, Reg: 5, Op: 9}
	b, err := AppendFrameBytes(nil, Frame{Type: FrameMsg, From: 77, Msg: read})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 0, 27, Version, byte(FrameMsg), byte(core.KindRead)}
	want = binary.BigEndian.AppendUint64(want, 3)
	want = binary.BigEndian.AppendUint64(want, 5)
	want = binary.BigEndian.AppendUint64(want, 9)
	if !bytes.Equal(b, want) {
		t.Fatalf("READ frame (%d B):\n got % x\nwant % x (%d B)", len(b), b, want, len(want))
	}
	f, err := DecodeFrame(b[4:])
	if err != nil {
		t.Fatal(err)
	}
	if f.From != read.From || f.Msg != read {
		t.Fatalf("decoded From %v, Msg %#v; want From %v, Msg %#v", f.From, f.Msg, read.From, read)
	}
}

// reservedKindFrames returns MSG frames of kinds 7 to 10, each with the
// body it once decoded: a retired write-token lease's CLAIM(from, stamp),
// BEAT(from, free, seq) and TOKEN(from), and a retired batched write's
// WRITE_BATCH(from, op, count, ⟨reg, val, sn⟩…).
func reservedKindFrames() [][]byte {
	head := func(kind byte) []byte {
		return []byte{Version, byte(FrameMsg), kind, 0, 0, 0, 0, 0, 0, 0, 1}
	}
	return [][]byte{
		append(head(7), 0, 0, 0, 0, 0, 0, 0, 2),
		append(head(8), 1, 0, 0, 0, 0, 0, 0, 0, 3),
		head(9),
		append(head(10), 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 1,
			0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3),
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid := encode(t, Frame{Type: FrameMsg, Msg: core.AckMsg{From: 1}})
	cases := map[string][]byte{
		"empty":            {},
		"version only":     {Version},
		"bad version":      {99, byte(FrameMsg)},
		"bad frame type":   {Version, 99},
		"truncated msg":    valid[:len(valid)-1],
		"trailing bytes":   append(append([]byte{}, valid...), 0),
		"bad msg kind":     {Version, byte(FrameMsg), 99, 0, 0, 0, 0, 0, 0, 0, 1},
		"hello addr short": {Version, byte(FrameHello), 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 50, 'x'},
		"hello bad role":   {Version, byte(FrameHello), 0, 0, 0, 0, 0, 0, 0, 1, 7, 0, 0, 0},
		"hello bad active": {Version, byte(FrameHello), 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 0},
		"peer bad active":  {Version, byte(FramePeers), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0},
		"peers count lies": {Version, byte(FramePeers), 0, 0, 4, 0},
		"viewreq trailing": {Version, byte(FrameViewReq), 0},
		"view truncated":   {Version, byte(FrameView), 0, 0, 0, 0, 0, 0, 0, 9, 0, 0},
	}
	for i, b := range reservedKindFrames() {
		cases[fmt.Sprintf("kind %d reserved", 7+i)] = b
	}
	for name, b := range cases {
		if _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: DecodeFrame accepted malformed payload % x", name, b)
		}
	}
}

// allocated reports the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestScannerRejectsBadLength pins the bound every connection relies on:
// a length prefix of 0 or above MaxFrame is ErrTooLarge, refused before
// the payload buffer grows to the claimed size, and MaxFrame itself passes
// the bound (the payload then fails to decode on its own merits).
func TestScannerRejectsBadLength(t *testing.T) {
	for _, n := range []uint32{0, MaxFrame + 1} {
		s := NewScanner(bytes.NewReader(binary.BigEndian.AppendUint32(nil, n)))
		var err error
		if got := allocated(func() { _, err = s.Next() }); got >= MaxFrame/2 {
			t.Errorf("length %d: Next allocated %d B", n, got)
		}
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("length %d: Next error = %v, want ErrTooLarge", n, err)
		}
	}
	stream := binary.BigEndian.AppendUint32(nil, MaxFrame)
	stream = append(stream, Version, byte(FrameViewReq))
	stream = append(stream, make([]byte, MaxFrame-2)...)
	if _, err := NewScanner(bytes.NewReader(stream)).Next(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("length MaxFrame: Next error = %v, want the decode error ErrTrailing", err)
	}
}

// TestForgedCountNoHugeAlloc forges a snapshot reply whose entry count
// claims far more entries than the payload holds; the decoder must reject
// it without allocating for the claimed count.
func TestForgedCountNoHugeAlloc(t *testing.T) {
	b := encode(t, Frame{Type: FrameMsg, Msg: core.ReplyMsg{From: 1, Reg: 2}})
	// The last 4 bytes are the Rest count; forge it huge.
	b[len(b)-1] = 0xff
	b[len(b)-2] = 0xff
	b[len(b)-3] = 0xff
	var err error
	if got := allocated(func() { _, err = DecodeFrame(b) }); got >= 1<<20 {
		t.Errorf("forged count: DecodeFrame allocated %d B", got)
	}
	if err == nil {
		t.Fatal("decoder accepted forged entry count")
	}
}

// TestForwardRoundTrip pins the FORWARD/FORWARDED layouts field by field
// (the property/fuzz tests cover random values; this one is the readable
// byte-layout contract).
func TestForwardRoundTrip(t *testing.T) {
	msgs := []core.Message{
		core.ForwardMsg{From: 3, Op: 17, Reg: 5, IsWrite: true, Val: -42},
		core.ForwardMsg{From: 1, Op: 1, Reg: 0, IsWrite: false, Val: 0},
		core.ForwardedMsg{From: 9, Op: 17, Reg: 5,
			Value: core.VersionedValue{Val: -42, SN: 12}, Code: core.ForwardOK},
		core.ForwardedMsg{From: 2, Op: 99, Reg: 8, Code: core.ForwardWrongReplica},
	}
	for _, m := range msgs {
		if got := roundTrip(t, m); got != m {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", m, got)
		}
	}
}

// TestForwardedRejectsBadCode: the codec stays canonical — an undefined
// FORWARDED outcome byte is rejected, not smuggled through.
func TestForwardedRejectsBadCode(t *testing.T) {
	enc := encode(t, Frame{Type: FrameMsg, Msg: core.ForwardedMsg{From: 1, Op: 2, Reg: 3, Code: core.ForwardOK}})
	enc[len(enc)-1] = 200
	if _, err := DecodeFrame(enc); err == nil {
		t.Fatal("bad forward code accepted")
	}
}

// TestViewRoundTrip pins the VIEW layout field by field (the property and
// fuzz tests cover random values; this is the readable byte-layout
// contract): version stamp, placement constants, then the member address
// book in PEERS entry format: id, active byte, address.
func TestViewRoundTrip(t *testing.T) {
	f := Frame{Type: FrameView, ViewVersion: 42, Shards: 8, Replication: 3,
		Peers: []Peer{{ID: 11, Addr: "10.1.2.3:4567", Active: true}}}
	payload := encode(t, f)
	want := []byte{Version, byte(FrameView)}
	want = binary.BigEndian.AppendUint64(want, 42)
	want = binary.BigEndian.AppendUint32(want, 8)
	want = binary.BigEndian.AppendUint32(want, 3)
	want = binary.BigEndian.AppendUint32(want, 1)
	want = binary.BigEndian.AppendUint64(want, 11)
	want = append(want, 1)
	want = binary.BigEndian.AppendUint16(want, 13)
	want = append(want, "10.1.2.3:4567"...)
	if string(payload) != string(want) {
		t.Fatalf("VIEW encoding:\n got % x\nwant % x", payload, want)
	}
}

// TestHelloRoleRoundTrip pins the widened HELLO layout: the role byte
// sits between the sender id and the address, zero for peers (so the
// pre-v4 call sites that never set a role still announce processes) and
// one for client sessions.
func TestHelloRoleRoundTrip(t *testing.T) {
	for _, f := range []Frame{
		{Type: FrameHello, From: 9, Addr: "a:1", Role: RolePeer},
		{Type: FrameHello, From: 0, Addr: "", Role: RoleClient},
	} {
		payload := encode(t, f)
		if got := Role(payload[10]); got != f.Role {
			t.Fatalf("role byte = %v, want %v", got, f.Role)
		}
		back, err := DecodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		if back.Role != f.Role || back.From != f.From || back.Addr != f.Addr {
			t.Fatalf("round trip mismatch: %+v vs %+v", back, f)
		}
	}
}

// TestHelloRejectsBadRole: the codec stays canonical — an undefined role
// byte is rejected on both sides, not smuggled through.
func TestHelloRejectsBadRole(t *testing.T) {
	if _, err := AppendFrameBytes(nil, Frame{Type: FrameHello, From: 1, Role: 9}); err == nil {
		t.Fatal("encoder accepted an undefined role")
	}
	payload := encode(t, Frame{Type: FrameHello, From: 1, Addr: "a:1"})
	payload[10] = 9
	if _, err := DecodeFrame(payload); err == nil {
		t.Fatal("decoder accepted an undefined role byte")
	}
}
