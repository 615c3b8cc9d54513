package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"churnreg/internal/core"
)

// randMessage draws one message of each kind in rotation with randomized
// fields, including batched join snapshots and multi-key write batches.
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
		return core.InquiryMsg{From: from, RSN: core.ReadSeq(rng.Int63n(1 << 30)), Op: op()}
	case core.KindReply:
		return core.ReplyMsg{From: from, Value: vv(), RSN: core.ReadSeq(rng.Int63n(1 << 30)),
			Reg: core.RegisterID(rng.Int63n(1 << 20)), Op: op(), Rest: kvs(rng.Intn(64))}
	case core.KindWrite:
		return core.WriteMsg{From: from, Value: vv(), Reg: core.RegisterID(rng.Int63n(1 << 20)), Op: op()}
	case core.KindAck:
		return core.AckMsg{From: from, SN: core.SeqNum(rng.Int63n(1 << 40)), Reg: core.RegisterID(rng.Int63n(1 << 20)), Op: op()}
	case core.KindRead:
		return core.ReadMsg{From: from, RSN: core.ReadSeq(rng.Int63n(1 << 30)), Reg: core.RegisterID(rng.Int63n(1 << 20)), Op: op()}
	case core.KindDLPrev:
		return core.DLPrevMsg{From: from, RSN: core.ReadSeq(rng.Int63n(1 << 30)), Reg: core.RegisterID(rng.Int63n(1 << 20)), Op: op()}
	case core.KindClaim:
		return core.ClaimMsg{From: from, Stamp: rng.Int63()}
	case core.KindBeat:
		return core.BeatMsg{From: from, Free: rng.Intn(2) == 0, Seq: rng.Uint64()}
	case core.KindToken:
		return core.TokenMsg{From: from}
	case core.KindWriteBatch:
		return core.WriteBatchMsg{From: from, Op: op(), Entries: kvs(1 + rng.Intn(32))}
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
	core.KindRead, core.KindDLPrev, core.KindClaim, core.KindBeat,
	core.KindToken, core.KindWriteBatch, core.KindForward, core.KindForwarded,
}

func TestMessageRoundTripEveryKind(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, kind := range allKinds {
		for trial := 0; trial < 200; trial++ {
			m := randMessage(rng, kind)
			b, err := EncodeMessage(m)
			if err != nil {
				t.Fatalf("%v: encode: %v", kind, err)
			}
			got, err := DecodeMessage(b)
			if err != nil {
				t.Fatalf("%v: decode: %v", kind, err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("%v: round trip mismatch:\n in: %#v\nout: %#v", kind, m, got)
			}
		}
	}
}

func TestMessageRoundTripBoundaryValues(t *testing.T) {
	// Extremes: negative sentinels (BottomSN, neverBeat-era stamps), zero
	// values, max int64.
	msgs := []core.Message{
		core.InquiryMsg{From: core.NoProcess, RSN: core.JoinReadSeq},
		core.ReplyMsg{From: 1, Value: core.Bottom(), RSN: -1, Reg: core.DefaultRegister},
		core.ReplyMsg{From: 1<<62 - 1, Value: core.VersionedValue{Val: -1 << 62, SN: 1<<62 - 1},
			RSN: 1<<62 - 1, Reg: 1<<62 - 1,
			Rest: []core.KeyedValue{{Reg: -5, Value: core.Bottom()}}},
		core.WriteMsg{From: 3, Value: core.VersionedValue{Val: -9, SN: 0}, Reg: 0, Op: 1<<64 - 1},
		core.AckMsg{From: 2, SN: core.BottomSN, Reg: -1, Op: core.NoOp},
		core.BeatMsg{From: 4, Free: true, Seq: 1<<64 - 1},
		core.ClaimMsg{From: 5, Stamp: -1 << 40},
		core.TokenMsg{From: 6},
		core.WriteBatchMsg{From: 7, Entries: []core.KeyedValue{{Reg: 1, Value: core.VersionedValue{Val: 2, SN: 3}}}},
	}
	for _, m := range msgs {
		b, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("encode %#v: %v", m, err)
		}
		got, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("decode %#v: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", m, got)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	frames := []Frame{
		{Type: FrameHello, From: 42, Addr: "127.0.0.1:7001"},
		{Type: FrameHello, From: 1, Addr: ""},
		{Type: FrameHello, From: 0, Role: RoleClient},
		{Type: FrameLeave, From: 9},
		{Type: FramePeers},
		{Type: FramePeers, Peers: []Peer{{ID: 1, Addr: "10.0.0.1:9"}, {ID: 2, Addr: "[::1]:80"}}},
		{Type: FrameViewReq},
		{Type: FrameView, ViewVersion: 0, Shards: 0, Replication: 0},
		{Type: FrameView, ViewVersion: 17, Shards: 8, Replication: 3,
			Peers: []Peer{{ID: 1, Addr: "10.0.0.1:9"}, {ID: 2, Addr: "[::1]:80"}, {ID: 3, Addr: "c:3"}}},
	}
	for _, kind := range allKinds {
		frames = append(frames, Frame{Type: FrameMsg, From: core.ProcessID(rng.Int63n(1 << 30)), Msg: randMessage(rng, kind)})
	}
	for _, f := range frames {
		payload, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("encode %+v: %v", f, err)
		}
		got, err := DecodeFrame(payload)
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
		f := Frame{Type: FrameMsg, From: core.ProcessID(i + 1), Msg: randMessage(rng, allKinds[i%len(allKinds)])}
		sent = append(sent, f)
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("write frame %d: %v", i, err)
		}
	}
	for i, want := range sent {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d mismatch:\n in: %#v\nout: %#v", i, want, got)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("stream has %d trailing bytes", buf.Len())
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid, err := EncodeFrame(Frame{Type: FrameMsg, From: 1, Msg: core.TokenMsg{From: 1}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"version only":     {Version},
		"bad version":      {99, byte(FrameMsg)},
		"bad frame type":   {Version, 99},
		"truncated msg":    valid[:len(valid)-1],
		"trailing bytes":   append(append([]byte{}, valid...), 0),
		"bad msg kind":     {Version, byte(FrameMsg), 0, 0, 0, 0, 0, 0, 0, 1, 99},
		"hello addr short": {Version, byte(FrameHello), 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 50, 'x'},
		"hello bad role":   {Version, byte(FrameHello), 0, 0, 0, 0, 0, 0, 0, 1, 7, 0, 0},
		"peers count lies": {Version, byte(FramePeers), 0, 0, 4, 0},
		"viewreq trailing": {Version, byte(FrameViewReq), 0},
		"view truncated":   {Version, byte(FrameView), 0, 0, 0, 0, 0, 0, 0, 9, 0, 0},
	}
	for name, b := range cases {
		if _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: DecodeFrame accepted malformed payload % x", name, b)
		}
	}
}

func TestReadFrameRejectsOversizedPrefix(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("ReadFrame accepted a 4 GiB length prefix")
	}
}

// TestForgedCountNoHugeAlloc forges a snapshot reply whose entry count
// claims far more entries than the payload holds; the decoder must reject
// it without allocating for the claimed count.
func TestForgedCountNoHugeAlloc(t *testing.T) {
	b, err := EncodeMessage(core.ReplyMsg{From: 1, Reg: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The last 4 bytes are the Rest count; forge it huge.
	b[len(b)-1] = 0xff
	b[len(b)-2] = 0xff
	b[len(b)-3] = 0xff
	if _, err := DecodeMessage(b); err == nil {
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
		enc, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("%v: encode: %v", m.Kind(), err)
		}
		got, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.Kind(), err)
		}
		if got != m {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", m, got)
		}
	}
}

// TestForwardedRejectsBadCode: the codec stays canonical — an undefined
// FORWARDED outcome byte is rejected, not smuggled through.
func TestForwardedRejectsBadCode(t *testing.T) {
	enc, err := EncodeMessage(core.ForwardedMsg{From: 1, Op: 2, Reg: 3, Code: core.ForwardOK})
	if err != nil {
		t.Fatal(err)
	}
	enc[len(enc)-1] = 200
	if _, err := DecodeMessage(enc); err == nil {
		t.Fatal("bad forward code accepted")
	}
}

// TestViewRoundTrip pins the VIEW layout field by field (the property and
// fuzz tests cover random values; this is the readable byte-layout
// contract): version stamp, placement constants, then the member address
// book in PEERS entry format.
func TestViewRoundTrip(t *testing.T) {
	f := Frame{Type: FrameView, ViewVersion: 42, Shards: 8, Replication: 3,
		Peers: []Peer{{ID: 11, Addr: "10.1.2.3:4567"}}}
	payload, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{Version, byte(FrameView)}
	want = binary.BigEndian.AppendUint64(want, 42)
	want = binary.BigEndian.AppendUint32(want, 8)
	want = binary.BigEndian.AppendUint32(want, 3)
	want = binary.BigEndian.AppendUint32(want, 1)
	want = binary.BigEndian.AppendUint64(want, 11)
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
		payload, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
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
	if _, err := EncodeFrame(Frame{Type: FrameHello, From: 1, Role: 9}); err == nil {
		t.Fatal("encoder accepted an undefined role")
	}
	payload, err := EncodeFrame(Frame{Type: FrameHello, From: 1, Addr: "a:1"})
	if err != nil {
		t.Fatal(err)
	}
	payload[10] = 9
	if _, err := DecodeFrame(payload); err == nil {
		t.Fatal("decoder accepted an undefined role byte")
	}
}
