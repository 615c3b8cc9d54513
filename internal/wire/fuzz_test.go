package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"churnreg/internal/core"
)

// FuzzDecodeFrame asserts the decoder never panics on arbitrary bytes, and
// that every payload it accepts re-encodes to the identical bytes (the
// codec is canonical: one payload per frame, one frame per payload).
func FuzzDecodeFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, kind := range allKinds {
		f.Add(encode(f, Frame{Type: FrameMsg, Msg: randMessage(rng, kind)}))
	}
	for _, fr := range []Frame{
		{Type: FrameHello, From: 3, Addr: "127.0.0.1:9999"},
		{Type: FrameHello, From: 0, Role: RoleClient},
		{Type: FramePeers, Peers: []Peer{{ID: 1, Addr: "a:1"}, {ID: 2, Addr: "b:2"}}},
		{Type: FramePeers, Peers: []Peer{{ID: 3, Addr: "c:3", Active: true}}},
		{Type: FrameHello, From: 4, Addr: "d:4", Active: true},
		{Type: FrameLeave, From: 12},
		{Type: FrameViewReq},
		{Type: FrameView, ViewVersion: 5, Shards: 8, Replication: 3,
			Peers: []Peer{{ID: 1, Addr: "a:1"}, {ID: 2, Addr: "b:2"}}},
	} {
		f.Add(encode(f, fr))
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version, byte(FrameMsg)})
	// Earlier versions' payloads: the decoder must reject them with the
	// versioned error, never misparse them.
	for _, payload := range v1Frames() {
		f.Add(payload)
	}
	for _, payload := range v4Frames() {
		f.Add(payload)
	}
	f.Add(v5Peers())
	for _, payload := range reservedKindFrames() {
		f.Add(payload)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		if len(b) >= 2 && b[0] != Version {
			// Previous (or future) codec versions fail loudly: whatever the
			// rest of the payload, the error is the versioned sentinel.
			if !errors.Is(err, ErrVersion) {
				t.Fatalf("foreign version byte %d decoded to err=%v, want ErrVersion", b[0], err)
			}
			return
		}
		if err != nil {
			return
		}
		re, err := AppendFrameBytes(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame fails to re-encode: %v (%#v)", err, fr)
		}
		if !bytes.Equal(re[4:], b) {
			t.Fatalf("codec not canonical:\n in: % x\nout: % x", b, re)
		}
	})
}

// FuzzMessageRoundTrip drives random field values through the message
// codec: whatever the fields, encode → decode is the identity.
func FuzzMessageRoundTrip(f *testing.F) {
	f.Add(int64(1), int64(2), int64(3), int64(4), int64(5), uint8(1))
	f.Add(int64(-1), int64(0), int64(-1<<62), int64(1<<62), int64(0), uint8(9))
	f.Fuzz(func(t *testing.T, a, b, c, d, e int64, kindByte uint8) {
		kind := allKinds[int(kindByte)%len(allKinds)]
		var m core.Message
		vv := core.VersionedValue{Val: core.Value(b), SN: core.SeqNum(c)}
		switch kind {
		case core.KindInquiry:
			m = core.InquiryMsg{From: core.ProcessID(a), Op: core.OpID(d)}
		case core.KindReply:
			m = core.ReplyMsg{From: core.ProcessID(a), Value: vv, Reg: core.RegisterID(e),
				Op: core.OpID(d), Rest: []core.KeyedValue{{Reg: core.RegisterID(d), Value: vv}}}
		case core.KindWrite:
			m = core.WriteMsg{From: core.ProcessID(a), Value: vv, Reg: core.RegisterID(d), Op: core.OpID(e)}
		case core.KindAck:
			m = core.AckMsg{From: core.ProcessID(a), SN: core.SeqNum(b), Reg: core.RegisterID(c), Op: core.OpID(d)}
		case core.KindRead:
			m = core.ReadMsg{From: core.ProcessID(a), Reg: core.RegisterID(c), Op: core.OpID(b)}
		case core.KindDLPrev:
			m = core.DLPrevMsg{From: core.ProcessID(a), Reg: core.RegisterID(c), Op: core.OpID(b)}
		case core.KindForward:
			m = core.ForwardMsg{From: core.ProcessID(a), Op: core.OpID(d),
				Reg: core.RegisterID(e), IsWrite: b&1 == 0, Val: core.Value(c)}
		case core.KindForwarded:
			m = core.ForwardedMsg{From: core.ProcessID(a), Op: core.OpID(d),
				Reg: core.RegisterID(e), Value: vv, Code: core.ForwardCode(uint8(b) % 4)}
		}
		if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", m, got)
		}
	})
}
