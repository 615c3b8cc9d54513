// Package core defines the substrate every register protocol in this
// repository is written against: process identities, versioned register
// values, the wire messages of the paper's figures, and the Env/Node
// contracts that decouple protocol logic from the runtime executing it.
//
// Protocols (internal/syncreg, internal/esyncreg, internal/abd) are pure
// event-driven state machines over these interfaces. The deterministic
// simulator (internal/dynsys) and the goroutine live runtime
// (internal/livenet) both implement Env, so identical protocol code runs in
// virtual time and in real time.
package core

import (
	"errors"
	"fmt"

	"churnreg/internal/sim"
)

// Operation invocation errors. The paper assumes a process invokes read or
// write only after its join has returned, and that a process runs one
// operation at a time (processes are sequential). This codebase relaxes the
// second assumption: every protocol keeps an operation table keyed by OpID
// and serves many concurrent client operations — across keys and pipelined
// within a key — so ErrOpInProgress no longer polices sequentiality; it is
// backpressure, returned only when a node's operation table is full.
var (
	// ErrNotActive is returned when read/write is invoked before the
	// process's join operation has returned.
	ErrNotActive = errors.New("register: process has not completed join")
	// ErrOpInProgress is returned when a node cannot admit another
	// in-flight operation: its operation table has MaxInFlightOps entries
	// (backpressure — retry once earlier operations complete). The
	// multi-writer token claim and the atomic read wrapper also return it
	// for their genuinely one-at-a-time operations (claiming, write-back).
	ErrOpInProgress = errors.New("register: operation table full (too many operations in progress)")
)

// ProcessID uniquely identifies a process across the whole run. The paper
// uses the infinite-arrival model: infinitely many processes may join over
// time, each with a fresh identity; a process that re-enters does so under
// a new ID. IDs are allocated by the churn engine and never reused.
type ProcessID int64

// NoProcess is the zero ProcessID, never allocated to a real process.
const NoProcess ProcessID = 0

// String renders the ID in the paper's p_i style.
func (id ProcessID) String() string { return fmt.Sprintf("p%d", int64(id)) }

// RegisterID names one register in the keyed register namespace. The
// paper studies a single register; this codebase multiplexes arbitrarily
// many over one churn-bound membership substrate, so every per-register
// wire message and every per-register piece of node state is keyed by a
// RegisterID. Key allocation is the application's concern (hash a name,
// intern a string — see package strings for the value-side analogue).
type RegisterID int64

// DefaultRegister is key 0: the paper's single register. The legacy
// single-register API (Read/Write, Snapshot) is sugar over this key, and
// the zero value of the Reg field on wire messages addresses it, so
// pre-keyed message constructions remain valid.
const DefaultRegister RegisterID = 0

// String renders the key in a compact r<k> style.
func (r RegisterID) String() string { return fmt.Sprintf("r%d", int64(r)) }

// SeqNum is a register sequence number. The initial value of the register
// carries sequence number 0; each write increments it.
type SeqNum int64

// BottomSN marks the ⊥ (unknown) register state a process holds between
// entering the system and learning a value.
const BottomSN SeqNum = -1

// Value is the register's value domain. The paper leaves the domain
// abstract; int64 keeps simulated runs cheap while the public API layers
// arbitrary payloads on top via an interning table.
type Value int64

// VersionedValue is a register value paired with its sequence number.
// The zero VersionedValue is NOT ⊥; use Bottom for the unknown state.
type VersionedValue struct {
	Val Value
	SN  SeqNum
}

// Bottom returns the ⊥ register state held before a join learns a value.
func Bottom() VersionedValue { return VersionedValue{SN: BottomSN} }

// IsBottom reports whether v is the unknown ⊥ state.
func (v VersionedValue) IsBottom() bool { return v.SN == BottomSN }

// MoreRecent reports whether v supersedes u (strictly larger sequence
// number). Bottom is superseded by everything with SN >= 0.
func (v VersionedValue) MoreRecent(u VersionedValue) bool { return v.SN > u.SN }

// String renders the pair as ⟨val, sn⟩.
func (v VersionedValue) String() string {
	if v.IsBottom() {
		return "⟨⊥⟩"
	}
	return fmt.Sprintf("⟨%d,#%d⟩", int64(v.Val), int64(v.SN))
}

// KeyedValue pairs a versioned value with the register it belongs to —
// the unit of batch dissemination: join snapshot replies and batched
// writes carry one KeyedValue per key.
type KeyedValue struct {
	Reg   RegisterID
	Value VersionedValue
}

// String renders the pair as r<k>=⟨val,#sn⟩.
func (kv KeyedValue) String() string { return fmt.Sprintf("%v=%v", kv.Reg, kv.Value) }

// ImplicitInitial is the virtual initial state of every register other
// than DefaultRegister: value 0 with sequence number 0, written by the
// paper's fictional initial write completing at time 0. Key 0's initial
// value is configured at bootstrap (SpawnContext.Initial); all other keys
// spring into existence already holding this value, so a read of a key
// nobody ever wrote is well-defined and regular.
func ImplicitInitial() VersionedValue { return VersionedValue{} }

// ReadSeq identifies a read request issued by a process. The paper tags
// each read with (i, read_sn); read_sn = 0 identifies the join inquiry.
type ReadSeq int64

// JoinReadSeq is the reserved read sequence number identifying the join
// operation's inquiry in the eventually synchronous protocol.
const JoinReadSeq ReadSeq = 0

// OpID identifies one client operation (a read or a write) at its invoking
// node. Every protocol draws OpIDs from a single per-node counter — the
// generalization of the paper's read_sn to ALL operations — and tags its
// request broadcasts with them, so replies and acknowledgments route to
// the exact in-flight operation they answer even when many operations on
// the same key are pipelined. The pair (ProcessID, OpID) is globally
// unique. For read-type requests the wire also carries the paper's
// read_sn, which is numerically this OpID (one counter feeds both tags).
type OpID uint64

// NoOp is the reserved zero OpID. It identifies the join operation (the
// paper's read_sn = 0 inquiry) on request messages, and marks "no
// originating operation known" on indirectly triggered acknowledgments
// (the Lemma-7 reply-acks, which feed a WRITER's quorum but are sent by a
// READER that cannot know the writer's OpID — those route by the
// ⟨register, sequence number⟩ the ack names instead).
const NoOp OpID = 0

// MaxInFlightOps bounds a node's operation table. An invocation arriving
// with the table full gets ErrOpInProgress — backpressure, not protocol
// state: entries are reclaimed as operations complete, and a departed
// node's whole table is reclaimed with the node.
const MaxInFlightOps = 1024

// String renders the id in an op<n> style.
func (id OpID) String() string { return fmt.Sprintf("op%d", uint64(id)) }

// Env is the runtime surface a protocol node sees. Implementations must
// guarantee single-threaded delivery per node: a node's handlers are never
// invoked concurrently, so protocol state machines need no locks.
type Env interface {
	// ID returns this process's identity.
	ID() ProcessID
	// Now returns the current time in paper time units. In the synchronous
	// model this is the paper's global clock; in the eventually synchronous
	// model protocols must not base decisions on it (it exists for tracing),
	// matching the paper's "time notion inaccessible to the processes".
	Now() sim.Time
	// Send transmits m to process to over the point-to-point network. A
	// message a process addresses to itself (to == ID(), or its own copy
	// of a Broadcast) arrives asynchronously — after the handler that sent
	// it has returned, never from inside Send — and within δ; a runtime
	// may deliver it with no delay at all, since a process's message to
	// itself crosses no network (nettransport does: the goroutine that
	// ran the handler delivers it next, before it lets go of the node).
	Send(to ProcessID, m Message)
	// Broadcast disseminates m through the broadcast service of §3.2/§5.1.
	Broadcast(m Message)
	// After schedules fn on this node no earlier than d time units of the
	// runtime's clock after the call — a lower bound; how much later is the
	// runtime's precision. Implements the protocols' wait(δ) statements.
	// Callbacks due together may run back to back, as one batch whose
	// sends go out together (nettransport's turn). The callback is not
	// invoked once the process has left the system.
	After(d sim.Duration, fn func())
	// Delta returns the system's claimed communication bound δ. Only the
	// synchronous protocol may rely on it; the eventually synchronous
	// protocol never calls it (asserted in tests).
	Delta() sim.Duration
	// SystemSize returns n, the constant number of processes, known to
	// every process in both models.
	SystemSize() int
	// MarkActive records that this node's join operation completed; the
	// membership layer uses it to maintain A(τ) accounting.
	MarkActive()
}

// Node is a register protocol instance bound to one process.
type Node interface {
	// Start is invoked once, when the process enters the system (the
	// beginning of its join, in the paper's "listening mode" sense), or at
	// time 0 for the n initial processes (with Bootstrap set).
	Start()
	// Deliver hands the node a message. from is the sender's identity.
	Deliver(from ProcessID, m Message)
	// Active reports whether the node completed its join.
	Active() bool
	// Snapshot returns the node's current local register copy (for
	// checking and metrics; not part of the protocol).
	Snapshot() VersionedValue
}

// SpawnContext tells a protocol factory how a node comes into existence.
// The paper's system starts with n processes that already hold the initial
// register value and are active; every later process joins empty-handed.
type SpawnContext struct {
	// Bootstrap marks one of the n initial processes.
	Bootstrap bool
	// Initial is register 0's initial value (valid when Bootstrap).
	Initial VersionedValue
	// InitialKeys optionally pre-provisions further registers on bootstrap
	// processes (valid when Bootstrap; must not contain DefaultRegister —
	// that is what Initial is for). Entries must be sorted by Reg and are
	// shared, not copied: treat as immutable.
	InitialKeys []KeyedValue
}

// NodeFactory builds a protocol instance for a freshly spawned process.
type NodeFactory func(env Env, sc SpawnContext) Node

// Reader is implemented by protocols whose read returns asynchronously
// (quorum-based reads). done receives the value the read returns.
type Reader interface {
	Read(done func(VersionedValue)) error
}

// LocalReader is implemented by protocols with fast local reads (§3).
type LocalReader interface {
	ReadLocal() (VersionedValue, error)
}

// Writer is implemented by protocol nodes that can issue writes. done runs
// when the write operation returns ok.
type Writer interface {
	Write(v Value, done func()) error
}

// KeyedReader is the multi-register analogue of Reader: a quorum read of
// one register in the namespace. Reads may be in flight concurrently on
// one node — across keys and pipelined on the same key — each tracked as
// its own operation-table entry; ErrOpInProgress only signals a full
// table.
type KeyedReader interface {
	ReadKey(reg RegisterID, done func(VersionedValue)) error
}

// KeyedLocalReader is the multi-register analogue of LocalReader.
type KeyedLocalReader interface {
	ReadLocalKey(reg RegisterID) (VersionedValue, error)
}

// KeyedWriter is the multi-register analogue of Writer. Writes may be in
// flight concurrently on one node — across keys, and pipelined on one key
// from this node (sequence numbers are assigned in invocation order). The
// paper's no-concurrent-writes discipline still applies per key ACROSS
// nodes: two different nodes must not write one key concurrently.
type KeyedWriter interface {
	WriteKey(reg RegisterID, v Value, done func()) error
}

// SNWriter is implemented by protocols that report the exact versioned
// value a write stored. Pipelined clients need it: with several writes to
// one key in flight, a snapshot taken after completion may reflect a
// LATER write, so the done callback carries this write's own ⟨v, sn⟩.
// WriteKey is sugar over this method in every protocol that has it.
type SNWriter interface {
	WriteKeySN(reg RegisterID, v Value, done func(VersionedValue)) error
}

// SNBatchWriter is the batch analogue of SNWriter: done receives the
// exact ⟨v, sn⟩ stored for each entry, in entry order.
type SNBatchWriter interface {
	WriteBatchSN(entries []KeyedWrite, done func([]KeyedValue)) error
}

// OpAccountant exposes the size of a node's operation table, for leak
// checks and metrics: a quiescent node (no client operation in flight)
// must report 0 — completed, failed, and superseded operations all
// reclaim their entries.
type OpAccountant interface {
	PendingOps() int
}

// ReadPathCounter is implemented by protocols whose quorum reads have a
// one-round fast path (all phase-1 replies agreed, write-back skipped)
// next to the two-round slow path. The counts are cumulative and read on
// the node's loop goroutine; metrics endpoints surface them so operators
// can see what fraction of reads the fast path serves.
type ReadPathCounter interface {
	ReadPathCounts() (fast, slow uint64)
}

// BatchWriter is implemented by protocols that can disseminate updates to
// several registers in one broadcast (the synchronous protocol: a batched
// WRITE costs the same single broadcast plus one δ wait as a lone write).
// Entries must be sorted by Reg and name each key at most once.
type BatchWriter interface {
	WriteBatch(entries []KeyedWrite, done func()) error
}

// KeyedWrite is one entry of a batched write: the key and the raw value
// to store (the protocol assigns the sequence number).
type KeyedWrite struct {
	Reg RegisterID
	Val Value
}

// KeyedSnapshotter exposes per-key local copies for checking and metrics.
type KeyedSnapshotter interface {
	// SnapshotKey returns the node's local copy of one register; for keys
	// the node has never seen it returns the key's initial state (Bottom
	// while joining or for key 0 before its value is learned).
	SnapshotKey(reg RegisterID) VersionedValue
	// Keys returns the registers this node holds explicit state for, in
	// ascending order.
	Keys() []RegisterID
}

// Joiner exposes the completion of the join operation. done runs when join
// returns ok. Implementations invoke it at most once.
type Joiner interface {
	OnJoined(done func())
}
