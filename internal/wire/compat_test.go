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

// v1Msg hand-builds a FrameMsg payload in the version-1 layout: version
// byte 1, frame type, envelope From, message kind, then the kind's v1
// fields (which carried no OpID). The encoder for that layout is gone;
// these bytes are the frozen history a current node may still receive
// from an old peer.
func v1Msg(kind core.MsgKind, fields ...int64) []byte {
	b := []byte{1, byte(FrameMsg)}
	b = v1be64(b, 7) // envelope From
	b = append(b, byte(kind))
	for _, f := range fields {
		b = v1be64(b, f)
	}
	return b
}

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
	// WRITE_BATCH(from, count=1, entry) — no Op before the count.
	batch := v1Msg(core.KindWriteBatch, 7)
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
//     HELLO. Their bodies are identical to today's, so each is a current
//     payload with its version byte rewound — exactly why the version
//     byte must govern acceptance: the bytes would parse, but the sender's
//     placement assumptions (every node replicates every key) no longer
//     hold.
//   - v3: every message kind, rewound the same way (v4 only widened HELLO
//     with a role byte and added VIEW_REQ/VIEW), and a HELLO hand-built in
//     the old role-less layout, which a current decoder fed without the
//     version check would misread.
//   - every other byte value, never issued, on a current WRITE.
func staleFrames(t *testing.T) []staleFrame {
	t.Helper()
	var out []staleFrame
	add := func(name string, payload []byte) {
		out = append(out, staleFrame{fmt.Sprintf("v%d/%s", payload[0], name), payload[0], payload})
	}
	encode := func(f Frame, version byte) []byte {
		payload, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		payload[0] = version
		return payload
	}
	for name, payload := range v1Frames() {
		add(name, payload)
	}
	for version, seed := range map[byte]int64{2: 11, 3: 17} {
		rng := rand.New(rand.NewSource(seed))
		for _, kind := range allKinds {
			if version == 2 && (kind == core.KindForward || kind == core.KindForwarded) {
				continue
			}
			add(kind.String(), encode(Frame{Type: FrameMsg, From: 7, Msg: randMessage(rng, kind)}, version))
		}
	}
	add("hello", encode(Frame{Type: FrameHello, From: 9, Addr: "127.0.0.1:7777"}, 2))
	// HELLO(from, addr) — v3 carried no role byte.
	hello := []byte{3, byte(FrameHello)}
	hello = binary.BigEndian.AppendUint64(hello, 9)
	hello = binary.BigEndian.AppendUint16(hello, 14)
	add("hello", append(hello, "127.0.0.1:7777"...))
	write := Frame{Type: FrameMsg, From: 7, Msg: core.WriteMsg{From: 7, Op: 1, Reg: 1, Value: core.VersionedValue{Val: 42, SN: 5}}}
	for v := 0; v < 256; v++ {
		if v < 1 || v > Version {
			add("write", encode(write, byte(v)))
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
