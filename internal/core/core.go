// Package core defines the substrate every register protocol in this
// repository is written against: process identities, versioned register
// values, the wire messages of the paper's figures, and the Env/Node
// contracts that decouple protocol logic from the runtime executing it.
//
// Protocols (internal/syncreg, internal/esyncreg, internal/abd) are pure
// event-driven state machines over these interfaces. The deterministic
// simulator (internal/dynsys) and the real-time TCP runtime
// (internal/nettransport) both implement Env, so identical protocol code runs
// in virtual time and in real time.
//
// Every node serves its operations through one interface, Ops: the
// paper's Read and Write on any key, each completing through a done
// callback. Stored hands out its register store, which the shard handoff
// reads and merges into; OpAccountant and ReadPathCounter only look at
// it. A join's end reaches the runtime through one call, Env.MarkActive.
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
	// atomic read wrapper also returns it for its genuinely one-at-a-time
	// operation, the write-back read.
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

// DefaultRegister is key 0: the paper's single register. The public
// clusters' Read/Write and Node.Snapshot are sugar over this key, and
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
// the unit of batch dissemination: a join snapshot reply carries one
// KeyedValue per key.
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

// OpID identifies one client operation (a read or a write) at its invoking
// node. Every protocol draws OpIDs from a single per-node counter — the
// generalization of the paper's read_sn to ALL operations — and tags its
// request broadcasts with them, so replies and acknowledgments route to
// the exact in-flight operation they answer even when many operations on
// the same key are pipelined. The pair (ProcessID, OpID) is globally
// unique. The paper tags each read with (i, read_sn); here read_sn IS
// the OpID, the one tag a request carries.
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
	// MarkActive records that this node's join operation returned ok
	// (a bootstrap node calls it from Start). It is the one signal of a
	// join's end: the membership layer keeps its A(τ) accounting with
	// it, and the runtimes wake whoever waits for the join.
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
}

// NodeFactory builds a protocol instance for a freshly spawned process.
type NodeFactory func(env Env, sc SpawnContext) Node

// Ops is the one operation contract every register node serves: the
// paper's read() and write(v), addressed to any register of the keyed
// namespace. Every engine (syncreg, esyncreg, abd, atomicreg) and the
// sharding wrapper (internal/shard) implement it, so a caller invokes an
// operation the same way whatever protocol runs underneath.
//
// The contract has one rule: if a call returns an error, done never runs
// (the operation was not invoked); otherwise done runs exactly once, on
// the node's handler context, possibly before the call returns (a local
// read completes at once). done must not be nil.
//
// Operations may be in flight concurrently on one node — across keys and
// pipelined on one key, each its own operation-table entry; a node's writes
// to a key take sequence numbers in invocation order. ErrOpInProgress only
// signals a full table. The paper's no-concurrent-writes discipline still
// applies per key ACROSS nodes: two nodes must not write one key at once.
type Ops interface {
	// Read returns reg's value, as the node it is invoked at serves it.
	// err reports a read that failed after invocation (a sharded node's
	// routing failure).
	Read(reg RegisterID, done func(v VersionedValue, err error)) error
	// Write stores v in reg. done receives the exact ⟨v, sn⟩ this write
	// stored — with several writes to one key in flight, a snapshot taken
	// after completion may reflect a LATER write — or the error of a write
	// that failed after invocation (a sharded write queued behind a
	// handoff whose node stopped being the key's primary: ErrUnroutable).
	Write(reg RegisterID, v Value, done func(VersionedValue, error)) error
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

// Stored exposes a node's register store: the one way register state
// leaves and enters a replica outside the protocol's own messages. The
// shard handoff builds its donor REPLY from it and merges what it
// receives into it; tests read per-key copies through it.
type Stored interface {
	Store() *RegStore
}
