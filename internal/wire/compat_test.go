package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"churnreg/internal/core"
)

func v1be64(b []byte, v int64) []byte { return binary.BigEndian.AppendUint64(b, uint64(v)) }

// legacyMsg hand-builds a FrameMsg payload in a pre-v5 layout: the
// version byte, frame type, envelope From, message kind, then the kind's
// fields in that version. The encoders for those layouts are gone; these
// bytes are the frozen history a current node may still receive from an
// old peer.
func legacyMsg(version byte, kind core.MsgKind, fields ...int64) []byte {
	b := []byte{version, byte(FrameMsg)}
	b = v1be64(b, 7) // envelope From
	b = append(b, byte(kind))
	for _, f := range fields {
		b = v1be64(b, f)
	}
	return b
}

// v1Msg hand-builds a version-1 FrameMsg payload, whose fields carried
// no OpID.
func v1Msg(kind core.MsgKind, fields ...int64) []byte { return legacyMsg(1, kind, fields...) }

// v1Frames enumerates one well-formed version-1 payload per message shape
// that gained an OpID in version 2, plus a control frame whose layout
// never changed (only its version byte differs).
func v1Frames() map[string][]byte {
	frames := map[string][]byte{
		// INQUIRY(from, rsn)
		"inquiry": v1Msg(core.KindInquiry, 7, 3),
		// WRITE(from, val, sn, reg)
		"write": v1Msg(core.KindWrite, 7, 42, 5, 1),
		// ACK(from, sn, reg)
		"ack": v1Msg(core.KindAck, 7, 5, 1),
		// READ(from, rsn, reg)
		"read": v1Msg(core.KindRead, 7, 3, 1),
		// DL_PREV(from, rsn, reg)
		"dlprev": v1Msg(core.KindDLPrev, 7, 3, 1),
	}
	// REPLY(from, val, sn, rsn, reg, count=0) — no Op before the count.
	reply := v1Msg(core.KindReply, 7, 42, 5, 3, 1)
	frames["reply"] = binary.BigEndian.AppendUint32(reply, 0)
	// WRITE_BATCH(from, count=1, entry) — no Op before the count. Kind
	// 10 is retired, so its byte is written as a number.
	batch := v1Msg(10, 7)
	batch = binary.BigEndian.AppendUint32(batch, 1)
	for _, f := range []int64{1, 42, 5} {
		batch = v1be64(batch, f)
	}
	frames["writebatch"] = batch
	// HELLO is layout-identical across versions; it must STILL be rejected
	// (no mixed-version mesh: the version byte governs the whole stream).
	hello := []byte{1, byte(FrameHello)}
	hello = v1be64(hello, 9)
	hello = binary.BigEndian.AppendUint16(hello, 3)
	frames["hello"] = append(hello, "a:1"...)
	return frames
}

// v4Frames enumerates one well-formed version-4 payload per message shape
// that version 5 shortened: each repeats its sender in the envelope and
// carries an rsn beside its OpID.
func v4Frames() map[string][]byte {
	// REPLY(from, val, sn, rsn, reg, op, count=0)
	reply := legacyMsg(4, core.KindReply, 7, 42, 5, 3, 1, 3)
	return map[string][]byte{
		// INQUIRY(from, rsn, op)
		"inquiry": legacyMsg(4, core.KindInquiry, 7, 3, 3),
		"reply":   binary.BigEndian.AppendUint32(reply, 0),
		// READ(from, rsn, reg, op)
		"read": legacyMsg(4, core.KindRead, 7, 3, 1, 3),
		// DL_PREV(from, rsn, reg, op)
		"dlprev": legacyMsg(4, core.KindDLPrev, 7, 3, 1, 3),
	}
}

// v5Peers hand-builds a version-5 PEERS payload with one entry, in the
// layout v5 used: uint32 count, then id and address, no active byte.
func v5Peers() []byte {
	b := []byte{5, byte(FramePeers)}
	b = binary.BigEndian.AppendUint32(b, 1)
	b = v1be64(b, 9)
	b = binary.BigEndian.AppendUint16(b, 14)
	return append(b, "127.0.0.1:7777"...)
}

// staleFrame is one payload a current node must refuse.
type staleFrame struct {
	name    string
	version byte
	payload []byte
}

// staleFrames enumerates one payload per frame case of every version
// other than Version:
//   - v1: the hand-built frames above.
//   - v2: every message kind but FORWARD/FORWARDED (v3 added them), and
//     HELLO, each a current payload with its version byte rewound —
//     exactly why the version byte must govern acceptance: a body that
//     parses is no evidence the sender's layout or placement assumptions
//     (every node replicates every key) match ours.
//   - v3: every message kind, rewound the same way (v4 only widened HELLO
//     with a role byte and added VIEW_REQ/VIEW), and a HELLO hand-built in
//     the old role-less layout, which a current decoder fed without the
//     version check would misread.
//   - v4: every message kind, rewound the same way, and the hand-built
//     v4Frames, whose envelope sender and rsn a current decoder fed
//     without the version check would misread.
//   - v5: every message kind, rewound the same way (v6 changed only
//     HELLO and the address-book entries), and a PEERS frame hand-built
//     in the old entry layout, id then address, whose address length a
//     current decoder fed without the version check would read as the
//     entry's active byte.
//   - every other byte value, never issued, on a current WRITE.
func staleFrames(t *testing.T) []staleFrame {
	t.Helper()
	var out []staleFrame
	add := func(name string, payload []byte) {
		out = append(out, staleFrame{fmt.Sprintf("v%d/%s", payload[0], name), payload[0], payload})
	}
	rewound := func(f Frame, version byte) []byte {
		payload := encode(t, f)
		payload[0] = version
		return payload
	}
	for name, payload := range v1Frames() {
		add(name, payload)
	}
	for name, payload := range v4Frames() {
		add(name, payload)
	}
	for version, seed := range map[byte]int64{2: 11, 3: 17, 4: 23, 5: 29} {
		rng := rand.New(rand.NewSource(seed))
		for _, kind := range allKinds {
			if version == 2 && (kind == core.KindForward || kind == core.KindForwarded) {
				continue
			}
			add(kind.String(), rewound(Frame{Type: FrameMsg, Msg: randMessage(rng, kind)}, version))
		}
	}
	add("hello", rewound(Frame{Type: FrameHello, From: 9, Addr: "127.0.0.1:7777"}, 2))
	// HELLO(from, addr) — v3 carried no role byte.
	hello := []byte{3, byte(FrameHello)}
	hello = binary.BigEndian.AppendUint64(hello, 9)
	hello = binary.BigEndian.AppendUint16(hello, 14)
	add("hello", append(hello, "127.0.0.1:7777"...))
	add("peers", v5Peers())
	write := Frame{Type: FrameMsg, Msg: core.WriteMsg{From: 7, Op: 1, Reg: 1, Value: core.VersionedValue{Val: 42, SN: 5}}}
	for v := 0; v < 256; v++ {
		if v < 1 || v > Version {
			add("write", rewound(write, byte(v)))
		}
	}
	return out
}

// rejectsStale pins the compatibility contract on the staleFrames rows
// whose version satisfies keep: each decodes to ErrVersion — a versioned,
// inspectable error, never a panic and never a silently misparsed
// message. (A node receiving one drops the connection; the old peer must
// upgrade.)
func rejectsStale(t *testing.T, keep func(version byte) bool) {
	t.Helper()
	n := 0
	for _, f := range staleFrames(t) {
		if !keep(f.version) {
			continue
		}
		n++
		if _, err := DecodeFrame(f.payload); !errors.Is(err, ErrVersion) {
			t.Errorf("%s: DecodeFrame error = %v, want ErrVersion", f.name, err)
		}
	}
	if n == 0 {
		t.Fatal("no stale frames for this version")
	}
}

func onlyVersion(v byte) func(byte) bool { return func(got byte) bool { return got == v } }

// TestDecodePreviousVersionFailsLoudly: every version-1 frame case.
func TestDecodePreviousVersionFailsLoudly(t *testing.T) { rejectsStale(t, onlyVersion(1)) }

// TestDecodeV2FailsLoudly: every version-2 frame case.
func TestDecodeV2FailsLoudly(t *testing.T) { rejectsStale(t, onlyVersion(2)) }

// TestDecodeV3FailsLoudly: every version-3 frame case.
func TestDecodeV3FailsLoudly(t *testing.T) { rejectsStale(t, onlyVersion(3)) }

// TestDecodeV4FailsLoudly: every version-4 frame case.
func TestDecodeV4FailsLoudly(t *testing.T) { rejectsStale(t, onlyVersion(4)) }

// TestDecodeV5FailsLoudly: every version-5 frame case.
func TestDecodeV5FailsLoudly(t *testing.T) { rejectsStale(t, onlyVersion(5)) }

// TestDecodeOtherVersionsFailLoudly: a WRITE stamped with every version
// byte never issued (0, and everything above Version).
func TestDecodeOtherVersionsFailLoudly(t *testing.T) {
	rejectsStale(t, func(v byte) bool { return v < 1 || v > Version })
}

// TestVersionedErrorNamesTheVersion makes the failure actionable: the
// error string carries the offending version so operators of a mixed
// deployment can tell WHICH side is old.
func TestVersionedErrorNamesTheVersion(t *testing.T) {
	for _, f := range staleFrames(t) {
		_, err := DecodeFrame(f.payload)
		if want := fmt.Sprintf("wire: unsupported codec version: %d", f.version); err == nil || err.Error() != want {
			t.Errorf("%s: error = %v, want %q", f.name, err, want)
		}
	}
}
