// Package wire is the binary codec the TCP transport speaks, and the one
// internal/netsim runs every simulated message through: every
// protocol message of internal/core (the paper's INQUIRY/REPLY/WRITE/ACK/
// READ/DL_PREV and the client's FORWARD/FORWARDED) round-trips through a
// compact fixed-layout encoding, carried
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
// A MSG body is the message alone: its kind byte, its sender, then its
// fields.
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
//	5: each fact once. A MSG body is the message alone — no envelope
//	   sender beside the message's own — and INQUIRY, REPLY, READ and
//	   DL_PREV lose their read_sn, which was always the OpID they carry
//	   (a shard handoff's tag moved into the OpID: core.HandoffOp).
//	   Version-4 payloads decode to ErrVersion: a v4 body would misparse
//	   field for field.
//	6: HELLO gains an active byte after its role, and every address-book
//	   entry (PEERS, VIEW) one after its id: whether that process's join
//	   has returned, which puts it in placement views. Version-5 payloads
//	   decode to ErrVersion: a v5 entry's address length would be read as
//	   its active byte.
const Version = 6

// MaxFrame bounds a payload's length. The largest legitimate frame is a
// join snapshot reply, 24 bytes per key; 1 MiB allows ~43k keys per
// snapshot which is far beyond every workload in the repo, while keeping a
// hostile length prefix from ballooning the read buffer.
const MaxFrame = 1 << 20

// MaxAddr bounds an encoded peer address.
const MaxAddr = 4096

// FrameType discriminates payloads.
type FrameType byte

// Frame types: Msg carries one core.Message; Hello/Peers/Leave are
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

// Peer is one PEERS or VIEW address-book entry (Active: its join returned).
type Peer struct {
	ID     core.ProcessID
	Addr   string
	Active bool
}

// Frame is the decoded form of one wire payload.
type Frame struct {
	Type FrameType
	// From identifies the sender (Msg, Hello, Leave). A Msg frame's sender
	// is its message's: encoding ignores From, and decoding sets it.
	From core.ProcessID
	// Addr is the sender's listen address (Hello): the receiver records it
	// so replies can be dialed.
	Addr string
	// Role distinguishes a meshing process from a client session, and
	// Active a process whose join has returned (Hello).
	Role   Role
	Active bool
	// Peers is the gossiped address book (Peers) or the placement's member
	// list (View).
	Peers []Peer
	// Msg is the carried protocol message (Msg).
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

// AppendFrameBytes appends f's complete wire form — length prefix plus
// payload — to dst and returns the extended slice. This is the coalescing
// transport's workhorse: many frames append into one flush buffer, and the
// whole buffer leaves in a single write. It allocates only when dst lacks
// capacity, so steady-state encoding into a recycled buffer performs zero
// heap allocations (TestAppendFrameBytesZeroAllocs enforces this). A MSG
// frame's sender is its message's: f.From is ignored. On error dst is
// returned unchanged.
func AppendFrameBytes(dst []byte, f Frame) ([]byte, error) {
	start := len(dst)
	b := append(dst, 0, 0, 0, 0, Version, byte(f.Type)) // length backfilled below
	var err error
	switch f.Type {
	case FrameMsg:
		b, err = appendMessage(b, f.Msg)
	case FrameHello:
		if f.Role > RoleClient {
			return dst[:start], fmt.Errorf("wire: bad hello role %d", byte(f.Role))
		}
		b = be64(b, int64(f.From))
		b = append(b, byte(f.Role), boolByte(f.Active))
		b, err = appendStr(b, f.Addr)
	case FramePeers:
		b, err = appendPeers(b, f.Peers)
	case FrameLeave:
		b = be64(b, int64(f.From))
	case FrameViewReq:
		// Body-less: the request is the frame itself.
	case FrameView:
		b = binary.BigEndian.AppendUint64(b, f.ViewVersion)
		b = binary.BigEndian.AppendUint32(b, f.Shards)
		b = binary.BigEndian.AppendUint32(b, f.Replication)
		b, err = appendPeers(b, f.Peers)
	default:
		err = fmt.Errorf("%w: %d", ErrFrameType, byte(f.Type))
	}
	if err != nil {
		return dst[:start], err
	}
	n := len(b) - start - 4
	if n > MaxFrame {
		return dst[:start], ErrTooLarge
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// WriteFrame encodes f and writes it with its length prefix in one Write
// call, so concurrent writers interleave whole frames at worst never
// partial ones (callers still serialize per connection).
func WriteFrame(w io.Writer, f Frame) error {
	b, err := AppendFrameBytes(make([]byte, 0, 64), f)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// DecodeFrame parses one payload. It returns an error — never panics — on
// malformed input, and rejects payloads with trailing garbage. A MSG
// frame's From is its message's sender.
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
		f.From, f.Msg = d.message()
	case FrameHello:
		f.From = core.ProcessID(d.i64())
		f.Role = d.role()
		f.Active = d.bool()
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

// FrameSize reports how many bytes the first frame in b occupies, length
// prefix included. b must start at a frame boundary and hold the prefix:
// this is how a queue of rendered frames finds where its oldest one ends.
func FrameSize(b []byte) int {
	return 4 + int(binary.BigEndian.Uint32(b))
}

// appendMessage appends m's encoding to b: the kind byte, the sender, then
// the kind's fields.
func appendMessage(b []byte, m core.Message) ([]byte, error) {
	switch msg := m.(type) {
	case core.InquiryMsg:
		b = appendHead(b, core.KindInquiry, msg.From)
		b = appendOp(b, msg.Op)
	case core.ReplyMsg:
		b = appendHead(b, core.KindReply, msg.From)
		b = appendValue(b, msg.Value)
		b = be64(b, int64(msg.Reg))
		b = appendOp(b, msg.Op)
		b = binary.BigEndian.AppendUint32(b, uint32(len(msg.Rest)))
		for _, kv := range msg.Rest {
			b = be64(b, int64(kv.Reg))
			b = appendValue(b, kv.Value)
		}
	case core.WriteMsg:
		b = appendHead(b, core.KindWrite, msg.From)
		b = appendValue(b, msg.Value)
		b = be64(b, int64(msg.Reg))
		b = appendOp(b, msg.Op)
	case core.AckMsg:
		b = appendHead(b, core.KindAck, msg.From)
		b = be64(b, int64(msg.SN))
		b = be64(b, int64(msg.Reg))
		b = appendOp(b, msg.Op)
	case core.ReadMsg:
		b = appendHead(b, core.KindRead, msg.From)
		b = be64(b, int64(msg.Reg))
		b = appendOp(b, msg.Op)
	case core.DLPrevMsg:
		b = appendHead(b, core.KindDLPrev, msg.From)
		b = be64(b, int64(msg.Reg))
		b = appendOp(b, msg.Op)
	case core.ForwardMsg:
		b = appendHead(b, core.KindForward, msg.From)
		b = appendOp(b, msg.Op)
		b = be64(b, int64(msg.Reg))
		b = append(b, boolByte(msg.IsWrite))
		b = be64(b, int64(msg.Val))
	case core.ForwardedMsg:
		b = appendHead(b, core.KindForwarded, msg.From)
		b = appendOp(b, msg.Op)
		b = be64(b, int64(msg.Reg))
		b = appendValue(b, msg.Value)
		b = append(b, byte(msg.Code))
	default:
		return nil, fmt.Errorf("%w: %T", ErrMsgKind, m)
	}
	return b, nil
}

func appendHead(b []byte, kind core.MsgKind, from core.ProcessID) []byte {
	return be64(append(b, byte(kind)), int64(from))
}

func appendOp(b []byte, op core.OpID) []byte {
	return binary.BigEndian.AppendUint64(b, uint64(op))
}

func appendValue(b []byte, v core.VersionedValue) []byte {
	return be64(be64(b, int64(v.Val)), int64(v.SN))
}

// appendStr appends a peer address: uint16 length, then the bytes.
func appendStr(b []byte, s string) ([]byte, error) {
	if len(s) > MaxAddr {
		return nil, ErrAddrLength
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

// appendPeers appends one address-book section (uint32 count, then
// id+active+addr entries), shared by PEERS and VIEW.
func appendPeers(b []byte, peers []Peer) ([]byte, error) {
	b = binary.BigEndian.AppendUint32(b, uint32(len(peers)))
	for _, p := range peers {
		var err error
		if b, err = appendStr(append(be64(b, int64(p.ID)), boolByte(p.Active)), p.Addr); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// boolByte is a boolean's wire byte (see decoder.bool).
func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
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

// peerList reads one address-book section (uint32 count, then
// id+active+addr entries), shared by PEERS and VIEW.
func (d *decoder) peerList() []Peer {
	n := d.count(11) // 8-byte id + active byte + 2-byte length minimum per entry
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]Peer, 0, n)
	for i := 0; i < n; i++ {
		id := core.ProcessID(d.i64())
		active := d.bool()
		addr := d.str()
		if d.err != nil {
			return nil
		}
		out = append(out, Peer{ID: id, Addr: addr, Active: active})
	}
	return out
}

func (d *decoder) op() core.OpID { return core.OpID(d.u64()) }

func (d *decoder) reg() core.RegisterID { return core.RegisterID(d.i64()) }

func (d *decoder) value() core.VersionedValue {
	return core.VersionedValue{Val: core.Value(d.i64()), SN: core.SeqNum(d.i64())}
}

func (d *decoder) keyedValues() []core.KeyedValue {
	n := d.count(24)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]core.KeyedValue, 0, n)
	for i := 0; i < n; i++ {
		kv := core.KeyedValue{Reg: d.reg(), Value: d.value()}
		if d.err != nil {
			return nil
		}
		out = append(out, kv)
	}
	return out
}

// message reads one MSG body: the kind byte, the sender, then the kind's
// fields. It returns the sender beside the message so DecodeFrame can set
// Frame.From without a type switch.
func (d *decoder) message() (core.ProcessID, core.Message) {
	kind := core.MsgKind(d.u8())
	from := core.ProcessID(d.i64())
	if d.err != nil {
		return 0, nil
	}
	switch kind {
	case core.KindInquiry:
		return from, core.InquiryMsg{From: from, Op: d.op()}
	case core.KindReply:
		return from, core.ReplyMsg{
			From:  from,
			Value: d.value(),
			Reg:   d.reg(),
			Op:    d.op(),
			Rest:  d.keyedValues(),
		}
	case core.KindWrite:
		return from, core.WriteMsg{From: from, Value: d.value(), Reg: d.reg(), Op: d.op()}
	case core.KindAck:
		return from, core.AckMsg{From: from, SN: core.SeqNum(d.i64()), Reg: d.reg(), Op: d.op()}
	case core.KindRead:
		return from, core.ReadMsg{From: from, Reg: d.reg(), Op: d.op()}
	case core.KindDLPrev:
		return from, core.DLPrevMsg{From: from, Reg: d.reg(), Op: d.op()}
	case core.KindForward:
		return from, core.ForwardMsg{
			From:    from,
			Op:      d.op(),
			Reg:     d.reg(),
			IsWrite: d.bool(),
			Val:     core.Value(d.i64()),
		}
	case core.KindForwarded:
		return from, core.ForwardedMsg{
			From:  from,
			Op:    d.op(),
			Reg:   d.reg(),
			Value: d.value(),
			Code:  d.forwardCode(),
		}
	default:
		d.fail(fmt.Errorf("%w: %d", ErrMsgKind, int(kind)))
		return 0, nil
	}
}
