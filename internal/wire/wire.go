// Package wire is the binary codec the TCP transport speaks, and the one
// internal/netsim runs every simulated message through: every
// protocol message of internal/core (the paper's INQUIRY/REPLY/WRITE/ACK/
// READ/DL_PREV plus the multi-writer CLAIM/BEAT/TOKEN and the batched
// WRITE_BATCH) round-trips through a compact fixed-layout encoding, carried
// in length-prefixed frames alongside the transport's own control frames
// (HELLO/PEERS/LEAVE).
//
// Layout. A frame on the wire is
//
//	uint32 big-endian payload length | payload
//
// and a payload is
//
//	byte version | byte frame type | body
//
// Integers inside bodies are fixed-width big-endian (no varints: the
// messages are small and a fixed layout keeps the decoder branch-free and
// fuzz-simple). Strings (peer addresses) are uint16 length + bytes.
// Repeated sections (snapshot entries, peer lists) are uint32 count +
// fixed-size entries; the decoder bounds every count by the bytes actually
// remaining, so a hostile length can never force a large allocation.
//
// The decoder never panics on arbitrary input (FuzzDecodeFrame enforces
// this): every malformed payload yields an error.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"churnreg/internal/core"
)

// Version is the codec version stamped on every payload. A node receiving
// a different version drops the connection — the system has no mixed-
// version story yet, and failing loudly beats corrupting register state.
// One table in compat_test.go (staleFrames) pins that every other
// version, each earlier one below included, decodes to ErrVersion.
//
// Version history:
//
//	1: the original layout, no operation tags.
//	2: every request/reply message body carries the sender's (or echoed)
//	   core.OpID — the pipelining tag that lets a node run many
//	   concurrent operations. Version-1 payloads decode to ErrVersion.
//	3: adds the sharding relay messages FORWARD and FORWARDED (a
//	   non-replica node routing a client operation to its key's replica
//	   group, OpID-routed like every other request/reply pair). Version-2
//	   payloads decode to ErrVersion: a v2 node cannot parse the new
//	   kinds, and silently mixing sharded and unsharded placement
//	   assumptions would corrupt register state.
//	4: client sessions. HELLO carries a role byte (peer vs client) so
//	   an acceptor can tell a meshing process from an external SDK
//	   client that must stay out of the address book and the placement;
//	   the new VIEW_REQ and VIEW frames bootstrap and refresh a client's
//	   cached placement (view version, shard/replication constants, and
//	   the member address book). Version-3 payloads decode to ErrVersion:
//	   a v3 node would misparse the widened HELLO body, and a client
//	   routing on placement assumptions its server never agreed to would
//	   write to the wrong primary.
const Version = 4

// MaxFrame bounds a payload's length. The largest legitimate frame is a
// join snapshot reply, 24 bytes per key; 1 MiB allows ~43k keys per
// snapshot which is far beyond every workload in the repo, while keeping a
// hostile length prefix from ballooning the read buffer.
const MaxFrame = 1 << 20

// MaxAddr bounds an encoded peer address.
const MaxAddr = 4096

// FrameType discriminates payloads.
type FrameType byte

// Frame types: Msg envelops one core.Message; Hello/Peers/Leave are
// transport control traffic (connection handshake, address-book gossip,
// graceful departure); ViewReq/View are the client-session placement
// bootstrap (a client asks, the server answers — and pushes unasked
// whenever its membership view changes).
const (
	FrameMsg     FrameType = 1
	FrameHello   FrameType = 2
	FramePeers   FrameType = 3
	FrameLeave   FrameType = 4
	FrameViewReq FrameType = 5
	FrameView    FrameType = 6
)

// String names the frame type.
func (t FrameType) String() string {
	switch t {
	case FrameMsg:
		return "MSG"
	case FrameHello:
		return "HELLO"
	case FramePeers:
		return "PEERS"
	case FrameLeave:
		return "LEAVE"
	case FrameViewReq:
		return "VIEW_REQ"
	case FrameView:
		return "VIEW"
	default:
		return fmt.Sprintf("FrameType(%d)", byte(t))
	}
}

// Role is the HELLO role byte: it tells an acceptor whether the dialer
// is a meshing process (to be learned, gossiped, and placed) or an
// external client session (served directly, never part of the system).
type Role byte

// Roles. The zero value is RolePeer, so every pre-existing call site
// that builds a HELLO frame without thinking about roles still
// announces itself as a process.
const (
	RolePeer   Role = 0
	RoleClient Role = 1
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RolePeer:
		return "peer"
	case RoleClient:
		return "client"
	default:
		return fmt.Sprintf("Role(%d)", byte(r))
	}
}

// Peer is one address-book entry carried by HELLO and PEERS frames.
type Peer struct {
	ID   core.ProcessID
	Addr string
}

// Frame is the decoded form of one wire payload.
type Frame struct {
	Type FrameType
	// From identifies the sender (Msg, Hello, Leave).
	From core.ProcessID
	// Addr is the sender's listen address (Hello): the receiver records it
	// so replies can be dialed.
	Addr string
	// Role distinguishes a meshing process from a client session (Hello).
	Role Role
	// Peers is the gossiped address book (Peers) or the placement's member
	// list (View).
	Peers []Peer
	// Msg is the enveloped protocol message (Msg).
	Msg core.Message
	// ViewVersion is the monotone stamp of the sender's placement view
	// (View); a client discards pushes older than what it holds.
	ViewVersion uint64
	// Shards and Replication are the deployment's placement constants
	// (View). Shards == 0 means the keyspace is unsharded: any member
	// serves any key, and the member list is just the live server set.
	Shards      uint32
	Replication uint32
}

// Decode errors.
var (
	ErrShort      = errors.New("wire: truncated payload")
	ErrVersion    = errors.New("wire: unsupported codec version")
	ErrFrameType  = errors.New("wire: unknown frame type")
	ErrMsgKind    = errors.New("wire: unknown message kind")
	ErrTrailing   = errors.New("wire: trailing bytes after payload")
	ErrTooLarge   = errors.New("wire: frame exceeds size bound")
	ErrAddrLength = errors.New("wire: address exceeds size bound")
)

// EncodeFrame renders f as a payload (without the length prefix) into a
// fresh buffer. Hot paths that reuse buffers call AppendFrame instead;
// this wrapper exists for the cold paths and the tests.
func EncodeFrame(f Frame) ([]byte, error) {
	b, err := AppendFrame(make([]byte, 0, 64), f)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// AppendFrame appends f's payload (version byte, frame type byte, body) to
// dst and returns the extended slice. It allocates only when dst lacks
// capacity, so steady-state encoding into a recycled buffer performs zero
// heap allocations (TestAppendFrameZeroAllocs enforces this). On error dst
// is returned unchanged.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	start := len(dst)
	b := append(dst, Version, byte(f.Type))
	switch f.Type {
	case FrameMsg:
		b = be64(b, int64(f.From))
		var err error
		b, err = AppendMessage(b, f.Msg)
		if err != nil {
			return dst[:start], err
		}
	case FrameHello:
		if len(f.Addr) > MaxAddr {
			return dst[:start], ErrAddrLength
		}
		if f.Role > RoleClient {
			return dst[:start], fmt.Errorf("wire: bad hello role %d", byte(f.Role))
		}
		b = be64(b, int64(f.From))
		b = append(b, byte(f.Role))
		b = binary.BigEndian.AppendUint16(b, uint16(len(f.Addr)))
		b = append(b, f.Addr...)
	case FramePeers:
		b = binary.BigEndian.AppendUint32(b, uint32(len(f.Peers)))
		for _, p := range f.Peers {
			if len(p.Addr) > MaxAddr {
				return dst[:start], ErrAddrLength
			}
			b = be64(b, int64(p.ID))
			b = binary.BigEndian.AppendUint16(b, uint16(len(p.Addr)))
			b = append(b, p.Addr...)
		}
	case FrameLeave:
		b = be64(b, int64(f.From))
	case FrameViewReq:
		// Body-less: the request is the frame itself.
	case FrameView:
		b = binary.BigEndian.AppendUint64(b, f.ViewVersion)
		b = binary.BigEndian.AppendUint32(b, f.Shards)
		b = binary.BigEndian.AppendUint32(b, f.Replication)
		b = binary.BigEndian.AppendUint32(b, uint32(len(f.Peers)))
		for _, p := range f.Peers {
			if len(p.Addr) > MaxAddr {
				return dst[:start], ErrAddrLength
			}
			b = be64(b, int64(p.ID))
			b = binary.BigEndian.AppendUint16(b, uint16(len(p.Addr)))
			b = append(b, p.Addr...)
		}
	default:
		return dst[:start], fmt.Errorf("%w: %d", ErrFrameType, byte(f.Type))
	}
	if len(b)-start > MaxFrame {
		return dst[:start], ErrTooLarge
	}
	return b, nil
}

// AppendFrameBytes appends f's complete wire form — length prefix plus
// payload — to dst and returns the extended slice. This is the coalescing
// transport's workhorse: many frames append into one flush buffer, and the
// whole buffer leaves in a single write. On error dst is returned
// unchanged.
func AppendFrameBytes(dst []byte, f Frame) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length backfilled below
	out, err := AppendFrame(dst, f)
	if err != nil {
		return dst[:start], err
	}
	binary.BigEndian.PutUint32(out[start:], uint32(len(out)-start-4))
	return out, nil
}

// AppendPayloadBytes appends an already-encoded payload with its length
// prefix to dst: the coalescing path for pre-encoded frames (the
// transport's per-peer queues carry payloads, not Frames).
func AppendPayloadBytes(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// DecodeFrame parses one payload. It returns an error — never panics — on
// malformed input, and rejects payloads with trailing garbage.
func DecodeFrame(b []byte) (Frame, error) {
	d := decoder{b: b}
	ver := d.u8()
	typ := FrameType(d.u8())
	if d.err != nil {
		return Frame{}, d.err
	}
	if ver != Version {
		return Frame{}, fmt.Errorf("%w: %d", ErrVersion, ver)
	}
	f := Frame{Type: typ}
	switch typ {
	case FrameMsg:
		f.From = core.ProcessID(d.i64())
		f.Msg = d.message()
	case FrameHello:
		f.From = core.ProcessID(d.i64())
		f.Role = d.role()
		f.Addr = d.str()
	case FramePeers:
		f.Peers = d.peerList()
	case FrameLeave:
		f.From = core.ProcessID(d.i64())
	case FrameViewReq:
		// Body-less.
	case FrameView:
		f.ViewVersion = d.u64()
		f.Shards = d.u32()
		f.Replication = d.u32()
		f.Peers = d.peerList()
	default:
		return Frame{}, fmt.Errorf("%w: %d", ErrFrameType, byte(typ))
	}
	if d.err != nil {
		return Frame{}, d.err
	}
	if len(d.b) != d.off {
		return Frame{}, ErrTrailing
	}
	return f, nil
}

// FrameBytes prepends the length prefix to an encoded payload, yielding
// the exact bytes a connection carries. The prefix format has one owner:
// callers that pre-encode payloads (the transport's per-peer queues) use
// this rather than re-deriving the framing.
func FrameBytes(payload []byte) []byte {
	return AppendPayloadBytes(make([]byte, 0, 4+len(payload)), payload)
}

// FrameSize reports how many bytes the first frame in b occupies, length
// prefix included. b must start at a frame boundary and hold the prefix:
// this is how a queue of rendered frames finds where its oldest one ends.
func FrameSize(b []byte) int {
	return 4 + int(binary.BigEndian.Uint32(b))
}

// WriteFrame encodes f and writes it with its length prefix in one Write
// call, so concurrent writers interleave whole frames at worst never
// partial ones (callers still serialize per connection).
func WriteFrame(w io.Writer, f Frame) error {
	payload, err := EncodeFrame(f)
	if err != nil {
		return err
	}
	_, err = w.Write(FrameBytes(payload))
	return err
}

// ReadFrame reads one length-prefixed frame from r and decodes it.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return Frame{}, ErrTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, err
	}
	return DecodeFrame(payload)
}

// AppendMessage appends m's encoding (kind byte + body) to b.
func AppendMessage(b []byte, m core.Message) ([]byte, error) {
	switch msg := m.(type) {
	case core.InquiryMsg:
		b = append(b, byte(core.KindInquiry))
		b = be64(b, int64(msg.From))
		b = be64(b, int64(msg.RSN))
		b = binary.BigEndian.AppendUint64(b, uint64(msg.Op))
	case core.ReplyMsg:
		b = append(b, byte(core.KindReply))
		b = be64(b, int64(msg.From))
		b = be64(b, int64(msg.Value.Val))
		b = be64(b, int64(msg.Value.SN))
		b = be64(b, int64(msg.RSN))
		b = be64(b, int64(msg.Reg))
		b = binary.BigEndian.AppendUint64(b, uint64(msg.Op))
		b = binary.BigEndian.AppendUint32(b, uint32(len(msg.Rest)))
		for _, kv := range msg.Rest {
			b = appendKeyedValue(b, kv)
		}
	case core.WriteMsg:
		b = append(b, byte(core.KindWrite))
		b = be64(b, int64(msg.From))
		b = be64(b, int64(msg.Value.Val))
		b = be64(b, int64(msg.Value.SN))
		b = be64(b, int64(msg.Reg))
		b = binary.BigEndian.AppendUint64(b, uint64(msg.Op))
	case core.AckMsg:
		b = append(b, byte(core.KindAck))
		b = be64(b, int64(msg.From))
		b = be64(b, int64(msg.SN))
		b = be64(b, int64(msg.Reg))
		b = binary.BigEndian.AppendUint64(b, uint64(msg.Op))
	case core.ReadMsg:
		b = append(b, byte(core.KindRead))
		b = be64(b, int64(msg.From))
		b = be64(b, int64(msg.RSN))
		b = be64(b, int64(msg.Reg))
		b = binary.BigEndian.AppendUint64(b, uint64(msg.Op))
	case core.DLPrevMsg:
		b = append(b, byte(core.KindDLPrev))
		b = be64(b, int64(msg.From))
		b = be64(b, int64(msg.RSN))
		b = be64(b, int64(msg.Reg))
		b = binary.BigEndian.AppendUint64(b, uint64(msg.Op))
	case core.ClaimMsg:
		b = append(b, byte(core.KindClaim))
		b = be64(b, int64(msg.From))
		b = be64(b, msg.Stamp)
	case core.BeatMsg:
		b = append(b, byte(core.KindBeat))
		b = be64(b, int64(msg.From))
		if msg.Free {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.BigEndian.AppendUint64(b, msg.Seq)
	case core.TokenMsg:
		b = append(b, byte(core.KindToken))
		b = be64(b, int64(msg.From))
	case core.WriteBatchMsg:
		b = append(b, byte(core.KindWriteBatch))
		b = be64(b, int64(msg.From))
		b = binary.BigEndian.AppendUint64(b, uint64(msg.Op))
		b = binary.BigEndian.AppendUint32(b, uint32(len(msg.Entries)))
		for _, kv := range msg.Entries {
			b = appendKeyedValue(b, kv)
		}
	case core.ForwardMsg:
		b = append(b, byte(core.KindForward))
		b = be64(b, int64(msg.From))
		b = binary.BigEndian.AppendUint64(b, uint64(msg.Op))
		b = be64(b, int64(msg.Reg))
		if msg.IsWrite {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = be64(b, int64(msg.Val))
	case core.ForwardedMsg:
		b = append(b, byte(core.KindForwarded))
		b = be64(b, int64(msg.From))
		b = binary.BigEndian.AppendUint64(b, uint64(msg.Op))
		b = be64(b, int64(msg.Reg))
		b = be64(b, int64(msg.Value.Val))
		b = be64(b, int64(msg.Value.SN))
		b = append(b, byte(msg.Code))
	default:
		return nil, fmt.Errorf("%w: %T", ErrMsgKind, m)
	}
	return b, nil
}

// EncodeMessage renders m alone (kind byte + body), for tests and tools.
func EncodeMessage(m core.Message) ([]byte, error) {
	return AppendMessage(nil, m)
}

// DecodeMessage parses one message occupying the whole of b.
func DecodeMessage(b []byte) (core.Message, error) {
	d := decoder{b: b}
	m := d.message()
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != d.off {
		return nil, ErrTrailing
	}
	return m, nil
}

func appendKeyedValue(b []byte, kv core.KeyedValue) []byte {
	b = be64(b, int64(kv.Reg))
	b = be64(b, int64(kv.Value.Val))
	return be64(b, int64(kv.Value.SN))
}

func be64(b []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(b, uint64(v))
}

// decoder is a cursor over a payload; the first error sticks and every
// later accessor returns zero values, so call sites read linearly and
// check err once.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.off+1 > len(d.b) {
		d.fail(ErrShort)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// forwardCode reads a strict FORWARDED outcome byte: only the defined
// codes are legal, keeping the codec canonical.
func (d *decoder) forwardCode() core.ForwardCode {
	v := d.u8()
	if d.err == nil && v > byte(core.ForwardWrongReplica) {
		d.fail(fmt.Errorf("wire: bad forward code %d", v))
	}
	return core.ForwardCode(v)
}

// role reads a strict HELLO role byte: only the defined roles are legal,
// keeping the codec canonical.
func (d *decoder) role() Role {
	v := d.u8()
	if d.err == nil && v > byte(RoleClient) {
		d.fail(fmt.Errorf("wire: bad hello role %d", v))
	}
	return Role(v)
}

// bool reads a strict boolean byte: only 0 and 1 are legal, keeping the
// codec canonical (decode∘encode is the identity on accepted payloads).
func (d *decoder) bool() bool {
	v := d.u8()
	if d.err == nil && v > 1 {
		d.fail(fmt.Errorf("wire: bad bool byte %d", v))
	}
	return v == 1
}

func (d *decoder) i64() int64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail(ErrShort)
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return int64(v)
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.b) {
		d.fail(ErrShort)
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail(ErrShort)
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// count reads a uint32 element count and verifies the remaining bytes can
// actually hold that many elements of at least minSize bytes each, so a
// forged count cannot drive a huge allocation. The comparison runs in
// uint64: on 32-bit platforms a hostile 0xFFFFFFFF would otherwise wrap
// int negative, slip past the bound, and panic the make() downstream.
func (d *decoder) count(minSize int) int {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.b) {
		d.fail(ErrShort)
		return 0
	}
	n := uint64(binary.BigEndian.Uint32(d.b[d.off:]))
	d.off += 4
	if n*uint64(minSize) > uint64(len(d.b)-d.off) {
		d.fail(ErrShort)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	if d.err != nil {
		return ""
	}
	if d.off+2 > len(d.b) {
		d.fail(ErrShort)
		return ""
	}
	n := int(binary.BigEndian.Uint16(d.b[d.off:]))
	d.off += 2
	if n > MaxAddr {
		d.fail(ErrAddrLength)
		return ""
	}
	if d.off+n > len(d.b) {
		d.fail(ErrShort)
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// peerList reads one address-book section (uint32 count, then id+addr
// entries), shared by PEERS and VIEW.
func (d *decoder) peerList() []Peer {
	n := d.count(10) // 8-byte id + 2-byte length minimum per entry
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]Peer, 0, n)
	for i := 0; i < n; i++ {
		id := core.ProcessID(d.i64())
		addr := d.str()
		if d.err != nil {
			return nil
		}
		out = append(out, Peer{ID: id, Addr: addr})
	}
	return out
}

func (d *decoder) keyedValues() []core.KeyedValue {
	n := d.count(24)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]core.KeyedValue, 0, n)
	for i := 0; i < n; i++ {
		kv := core.KeyedValue{
			Reg: core.RegisterID(d.i64()),
			Value: core.VersionedValue{
				Val: core.Value(d.i64()),
				SN:  core.SeqNum(d.i64()),
			},
		}
		if d.err != nil {
			return nil
		}
		out = append(out, kv)
	}
	return out
}

func (d *decoder) message() core.Message {
	kind := core.MsgKind(d.u8())
	if d.err != nil {
		return nil
	}
	switch kind {
	case core.KindInquiry:
		return core.InquiryMsg{
			From: core.ProcessID(d.i64()),
			RSN:  core.ReadSeq(d.i64()),
			Op:   core.OpID(d.u64()),
		}
	case core.KindReply:
		return core.ReplyMsg{
			From: core.ProcessID(d.i64()),
			Value: core.VersionedValue{
				Val: core.Value(d.i64()),
				SN:  core.SeqNum(d.i64()),
			},
			RSN:  core.ReadSeq(d.i64()),
			Reg:  core.RegisterID(d.i64()),
			Op:   core.OpID(d.u64()),
			Rest: d.keyedValues(),
		}
	case core.KindWrite:
		return core.WriteMsg{
			From: core.ProcessID(d.i64()),
			Value: core.VersionedValue{
				Val: core.Value(d.i64()),
				SN:  core.SeqNum(d.i64()),
			},
			Reg: core.RegisterID(d.i64()),
			Op:  core.OpID(d.u64()),
		}
	case core.KindAck:
		return core.AckMsg{
			From: core.ProcessID(d.i64()),
			SN:   core.SeqNum(d.i64()),
			Reg:  core.RegisterID(d.i64()),
			Op:   core.OpID(d.u64()),
		}
	case core.KindRead:
		return core.ReadMsg{
			From: core.ProcessID(d.i64()),
			RSN:  core.ReadSeq(d.i64()),
			Reg:  core.RegisterID(d.i64()),
			Op:   core.OpID(d.u64()),
		}
	case core.KindDLPrev:
		return core.DLPrevMsg{
			From: core.ProcessID(d.i64()),
			RSN:  core.ReadSeq(d.i64()),
			Reg:  core.RegisterID(d.i64()),
			Op:   core.OpID(d.u64()),
		}
	case core.KindClaim:
		return core.ClaimMsg{
			From:  core.ProcessID(d.i64()),
			Stamp: d.i64(),
		}
	case core.KindBeat:
		return core.BeatMsg{
			From: core.ProcessID(d.i64()),
			Free: d.bool(),
			Seq:  d.u64(),
		}
	case core.KindToken:
		return core.TokenMsg{From: core.ProcessID(d.i64())}
	case core.KindWriteBatch:
		return core.WriteBatchMsg{
			From:    core.ProcessID(d.i64()),
			Op:      core.OpID(d.u64()),
			Entries: d.keyedValues(),
		}
	case core.KindForward:
		return core.ForwardMsg{
			From:    core.ProcessID(d.i64()),
			Op:      core.OpID(d.u64()),
			Reg:     core.RegisterID(d.i64()),
			IsWrite: d.bool(),
			Val:     core.Value(d.i64()),
		}
	case core.KindForwarded:
		return core.ForwardedMsg{
			From: core.ProcessID(d.i64()),
			Op:   core.OpID(d.u64()),
			Reg:  core.RegisterID(d.i64()),
			Value: core.VersionedValue{
				Val: core.Value(d.i64()),
				SN:  core.SeqNum(d.i64()),
			},
			Code: d.forwardCode(),
		}
	default:
		d.fail(fmt.Errorf("%w: %d", ErrMsgKind, int(kind)))
		return nil
	}
}
