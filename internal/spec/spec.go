// Package spec checks executions against register specifications.
//
// Experiments record every operation's invocation/response times and
// result into a History; the checkers then decide, post hoc, whether the
// execution is a legal behaviour of a regular register (§2.2), whether it
// would also pass for an atomic register (no new/old inversions), and
// whether it at least satisfies safety in Lamport's "safe register" sense.
//
// The checkers assume the paper's write discipline per key ACROSS
// processes: two different processes never write one register
// concurrently. ONE process may pipeline several writes to a key (the
// operation-table protocols assign their sequence numbers in invocation
// order), so same-process overlap is legal. ValidateWrites verifies the
// recorded history respects exactly that. Multiple outstanding
// operations per process — reads and writes alike — are ordinary
// histories here: every checker already reasons per key over intervals,
// so pipelining adds concurrency, not new machinery.
package spec

import (
	"fmt"
	"sort"

	"churnreg/internal/core"
	"churnreg/internal/sim"
)

// OpKind distinguishes recorded operations.
type OpKind int

// Operation kinds.
const (
	OpWrite OpKind = iota + 1
	OpRead
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one recorded operation.
type Op struct {
	Kind OpKind
	Proc core.ProcessID
	// Server is the process that actually SERVED the operation when it
	// differs from the invoking Proc — a sharded cluster forwards an
	// operation invoked at a non-replica to a replica of the key's
	// shard, and attribution must name the replica that produced the
	// value, not the relay. NoProcess means "served by Proc itself".
	// Recorded via History.SetServer.
	Server core.ProcessID
	// Reg is the register the operation addressed (DefaultRegister for
	// the single-register API). Every checker partitions by Reg: each key
	// of the namespace is its own regular register, and a violation on
	// one key is never masked — or manufactured — by another key's ops.
	Reg core.RegisterID
	// Start is the invocation instant; End the response instant.
	Start, End sim.Time
	// Value: for a write, the value written (with its sequence number);
	// for a completed read, the value returned.
	Value core.VersionedValue
	// Completed is false for operations still pending when the run ended
	// (e.g. the invoker left, or liveness failed).
	Completed bool
	// Abandoned marks a pending operation whose invoker left the system.
	// The paper's liveness property only covers invokers that stay, so
	// abandoned operations are excluded from liveness accounting.
	Abandoned bool
}

// ServedBy returns the process whose local state produced the
// operation's result: Server when recorded, else the invoking Proc.
func (o *Op) ServedBy() core.ProcessID {
	if o.Server != core.NoProcess {
		return o.Server
	}
	return o.Proc
}

// overlaps reports whether the operation's interval intersects [s, e].
// Incomplete operations extend to infinity.
func (o *Op) overlaps(s, e sim.Time) bool {
	if o.Start > e {
		return false
	}
	return !o.Completed || o.End >= s
}

// History is an append-only record of operations over the keyed register
// namespace. It is not safe for concurrent use; the simulator is
// single-threaded, and real-time recorders wrap it in a lock.
type History struct {
	ops []*Op
	// initial is register 0's initial value (the paper's virtual write
	// with sequence number 0 completing at time 0).
	initial core.VersionedValue
	// initials holds explicitly configured baselines for other keys;
	// keys absent here baseline at the implicit initial ⟨0,#0⟩.
	initials map[core.RegisterID]core.VersionedValue
}

// NewHistory returns a history whose register-0 baseline is the initial
// value (sequence number 0 at time 0). Every other key baselines at the
// implicit initial ⟨0,#0⟩ unless SetInitialKey overrides it.
func NewHistory(initial core.VersionedValue) *History {
	return &History{initial: initial}
}

// SetInitialKey overrides the baseline of one register (pre-provisioned
// namespaces record their configured initial values here).
func (h *History) SetInitialKey(reg core.RegisterID, v core.VersionedValue) {
	if reg == core.DefaultRegister {
		h.initial = v
		return
	}
	if h.initials == nil {
		h.initials = make(map[core.RegisterID]core.VersionedValue)
	}
	h.initials[reg] = v
}

// initialFor returns the baseline of one register.
func (h *History) initialFor(reg core.RegisterID) core.VersionedValue {
	if reg == core.DefaultRegister {
		return h.initial
	}
	if v, ok := h.initials[reg]; ok {
		return v
	}
	return core.ImplicitInitial()
}

// BeginWrite records a register-0 write invocation. The value's sequence
// number is the one the protocol assigned (recorded at completion for
// protocols that assign it late — pass Bottom here and fill it in
// Complete).
func (h *History) BeginWrite(proc core.ProcessID, now sim.Time) *Op {
	return h.BeginWriteKey(proc, core.DefaultRegister, now)
}

// BeginWriteKey records a write invocation on one register.
func (h *History) BeginWriteKey(proc core.ProcessID, reg core.RegisterID, now sim.Time) *Op {
	op := &Op{Kind: OpWrite, Proc: proc, Reg: reg, Start: now}
	h.ops = append(h.ops, op)
	return op
}

// BeginRead records a register-0 read invocation.
func (h *History) BeginRead(proc core.ProcessID, now sim.Time) *Op {
	return h.BeginReadKey(proc, core.DefaultRegister, now)
}

// BeginReadKey records a read invocation on one register.
func (h *History) BeginReadKey(proc core.ProcessID, reg core.RegisterID, now sim.Time) *Op {
	op := &Op{Kind: OpRead, Proc: proc, Reg: reg, Start: now}
	h.ops = append(h.ops, op)
	return op
}

// CompleteWrite records the write's response with the value it wrote.
func (h *History) CompleteWrite(op *Op, now sim.Time, v core.VersionedValue) {
	op.End = now
	op.Value = v
	op.Completed = true
}

// CompleteRead records the read's response with the value it returned.
func (h *History) CompleteRead(op *Op, now sim.Time, v core.VersionedValue) {
	op.End = now
	op.Value = v
	op.Completed = true
}

// ResolveValue records the ⟨v, sn⟩ a still-PENDING write is later known
// to have stored, without completing it. This is the post-hoc resolution
// for AMBIGUOUS writes: a wire client's write that was sent and never
// answered may or may not have been applied (client.ErrUnacknowledged),
// and the client learns the outcome only by
// observing the value in subsequent reads. Recording the observed
// ⟨v, sn⟩ keeps the op incomplete — concurrent with everything after its
// invocation, exactly a regular register's semantics for a write that
// never returned — while giving the checker the sequence number those
// reads legitimately returned (allowedSNs admits incomplete writes with
// recorded values). An ambiguous write whose value is NEVER observed
// needs no resolution: no read returned it, so no read needs it allowed.
func (h *History) ResolveValue(op *Op, v core.VersionedValue) {
	if op == nil || op.Completed || op.Abandoned {
		return
	}
	op.Value = v
}

// SetServer records the replica that actually served op (see Op.Server).
// Under forwarding, attributing the result to the relay would make the
// per-process monotone-reads check unsound: one client's successive
// reads may legally be served by different replicas whose local copies
// advance independently, so "reads never go backwards" is a property of
// the SERVING replica's copy, not of the relay.
func (h *History) SetServer(op *Op, server core.ProcessID) {
	if op == nil || server == op.Proc {
		return
	}
	op.Server = server
}

// Abandon marks a pending operation as abandoned (its invoker left).
// Completed operations are unaffected.
func (h *History) Abandon(op *Op) {
	if !op.Completed {
		op.Abandoned = true
	}
}

// Ops returns the recorded operations (live pointers; do not mutate).
func (h *History) Ops() []*Op { return h.ops }

// Initial returns register 0's baseline value.
func (h *History) Initial() core.VersionedValue { return h.initial }

// Keys returns every register the history names (always including 0),
// ascending.
func (h *History) Keys() []core.RegisterID {
	set := map[core.RegisterID]bool{core.DefaultRegister: true}
	for _, op := range h.ops {
		set[op.Reg] = true
	}
	for k := range h.initials {
		set[k] = true
	}
	out := make([]core.RegisterID, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of recorded operations.
func (h *History) Len() int { return len(h.ops) }

// Counts summarizes operation liveness.
type Counts struct {
	WritesBegun, WritesCompleted, WritesAbandoned int
	ReadsBegun, ReadsCompleted, ReadsAbandoned    int
}

// WritesPending returns writes neither completed nor abandoned — the
// number the liveness theorems say must be 0 at quiescence.
func (c Counts) WritesPending() int { return c.WritesBegun - c.WritesCompleted - c.WritesAbandoned }

// ReadsPending returns reads neither completed nor abandoned.
func (c Counts) ReadsPending() int { return c.ReadsBegun - c.ReadsCompleted - c.ReadsAbandoned }

// Counts tallies operation liveness.
func (h *History) Counts() Counts {
	var c Counts
	for _, op := range h.ops {
		switch op.Kind {
		case OpWrite:
			c.WritesBegun++
			if op.Completed {
				c.WritesCompleted++
			} else if op.Abandoned {
				c.WritesAbandoned++
			}
		case OpRead:
			c.ReadsBegun++
			if op.Completed {
				c.ReadsCompleted++
			} else if op.Abandoned {
				c.ReadsAbandoned++
			}
		}
	}
	return c
}

// writesByKey returns, per register, the completed and pending writes
// sorted by start time, with each key's virtual initial write prepended —
// one pass over the history, not one per key. Abandoned writes are
// skipped: they were either never invoked (rejected at invocation) or cut
// short by the invoker leaving; in the latter case their value, if it
// propagated at all, carries a sequence number a later writer will
// supersede, and their recorded value is ⊥ (allowedSNs guards it).
func (h *History) writesByKey() map[core.RegisterID][]*Op {
	out := make(map[core.RegisterID][]*Op)
	for _, k := range h.Keys() {
		out[k] = []*Op{{
			Kind:      OpWrite,
			Reg:       k,
			Start:     -1,
			End:       0,
			Value:     h.initialFor(k),
			Completed: true,
		}}
	}
	for _, op := range h.ops {
		if op.Kind == OpWrite && !op.Abandoned {
			out[op.Reg] = append(out[op.Reg], op)
		}
	}
	// Ops are recorded at invocation, so each key's slice is already
	// start-ordered except for histories assembled out of order by hand;
	// the stable sort is cheap on sorted input and keeps those correct.
	for _, ws := range out {
		sort.SliceStable(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
	}
	return out
}

// ValidateWrites verifies the history respects the write discipline PER
// KEY: writes to one register from DIFFERENT processes never overlap in
// time, and sequence numbers respect real-time order (a write starting
// after another completed carries a larger sn). Writes from ONE process
// may overlap — that is pipelining. Overlapping writes are concurrent, so
// no order is imposed between their sns (a client-observed history can
// legitimately see them settle in either order: two pipelined requests
// may arrive at the node reversed); they must merely be distinct — the
// node assigns each write its own sn. The node-side guarantee that sns
// follow ARRIVAL order is asserted where arrival order is observable
// (the simulator tests). Writes to distinct registers overlap freely —
// they are independent objects. A violation here means the workload (not
// the protocol) is broken, so it is an error, not a Violation.
func (h *History) ValidateWrites() error {
	wsByKey := h.writesByKey()
	for _, reg := range h.Keys() {
		ws := wsByKey[reg]
		// ws is start-ordered. One sweep with an active window: a write
		// stays active while later starts can still overlap it; once it
		// completed before the current start it retires into the rolling
		// maxDone. Cost is O(n·depth) per key, depth being the pipeline
		// width — the old adjacent-pair check's linearity preserved.
		var active []*Op
		var maxDone SeqNumBefore
		for _, cur := range ws {
			kept := active[:0]
			for _, prev := range active {
				if prev.Completed && cur.Start >= prev.End {
					maxDone.observe(prev.Value.SN)
					continue
				}
				kept = append(kept, prev)
			}
			active = kept
			for _, prev := range active {
				// prev overlaps cur (it survived retirement above).
				if prev.Proc != cur.Proc {
					if !prev.Completed {
						return fmt.Errorf("spec: %v write %v(#%d) never completed but %v started later",
							reg, prev.Proc, prev.Value.SN, cur.Proc)
					}
					return fmt.Errorf("spec: %v cross-process writes overlap: %v(#%d) [%d,%d] and %v(#%d) starting %d",
						reg, prev.Proc, prev.Value.SN, prev.Start, prev.End, cur.Proc, cur.Value.SN, cur.Start)
				}
				// Same-process pipelined overlap: concurrent, hence
				// unordered — but never the SAME sn (one sn per write).
				if cur.Completed && prev.Completed && cur.Value.SN == prev.Value.SN {
					return fmt.Errorf("spec: %v pipelined writes share sn #%d ([%d,%d] and [%d,%d])",
						reg, cur.Value.SN, prev.Start, prev.End, cur.Start, cur.End)
				}
			}
			// Real-time order: cur supersedes everything that completed
			// before it started.
			if cur.Completed && maxDone.seen && cur.Value.SN <= maxDone.max {
				return fmt.Errorf("spec: %v write sequence numbers not increasing: #%d completed before %v(#%d) started",
					reg, maxDone.max, cur.Proc, cur.Value.SN)
			}
			active = append(active, cur)
		}
	}
	return nil
}

// SeqNumBefore folds the largest sequence number among writes completed
// before an instant.
type SeqNumBefore struct {
	seen bool
	max  core.SeqNum
}

func (m *SeqNumBefore) observe(sn core.SeqNum) {
	if !m.seen || sn > m.max {
		m.seen = true
		m.max = sn
	}
}

// Violation describes a read that no regular register could return.
type Violation struct {
	Read *Op
	// Reg is the register the offending read addressed — the checker
	// attributes every violation to its key.
	Reg core.RegisterID
	// LastCompleted is the sequence number of the last write to Reg
	// completed before the read's invocation.
	LastCompleted core.SeqNum
	// Allowed lists the sequence numbers a regular register could return.
	Allowed []core.SeqNum
	// Reason is a human-readable diagnosis.
	Reason string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("read of %v by %v [%d,%d] returned #%d: %s (allowed %v)",
		v.Reg, v.Read.Proc, v.Read.Start, v.Read.End, v.Read.Value.SN, v.Reason, v.Allowed)
}

// CheckRegular returns every completed read that violates regularity: the
// read must return the last value written TO ITS REGISTER before its
// invocation, or a value written to that register by a write concurrent
// with it. Each key is checked against its own write history, so a
// violation on key A is reported even when key B's ops are spotless.
func (h *History) CheckRegular() []Violation {
	wsByKey := h.writesByKey()
	var out []Violation
	for _, r := range h.ops {
		if r.Kind != OpRead || !r.Completed {
			continue
		}
		ws := wsByKey[r.Reg]
		allowed := allowedSNs(ws, r)
		ok := false
		for _, sn := range allowed {
			if r.Value.SN == sn {
				ok = true
				break
			}
		}
		if !ok {
			reason := "stale value"
			if r.Value.IsBottom() {
				reason = "returned ⊥"
			} else if len(allowed) > 0 && r.Value.SN > allowed[len(allowed)-1] {
				reason = "value from the future (sequence number never written in window)"
			}
			out = append(out, Violation{
				Read:          r,
				Reg:           r.Reg,
				LastCompleted: lastCompletedSN(ws, r),
				Allowed:       allowed,
				Reason:        reason,
			})
		}
	}
	return out
}

// lastCompletedSN returns the sequence number of the last write completed
// strictly before the read's invocation. A write whose response lands at
// the same virtual instant as the read's invocation has no defined order
// (events within one integer instant are unordered), so it counts as
// concurrent instead — overlaps() picks it up.
func lastCompletedSN(ws []*Op, r *Op) core.SeqNum {
	last := core.BottomSN
	for _, w := range ws {
		if w.Completed && w.End < r.Start && w.Value.SN > last {
			last = w.Value.SN
		}
	}
	return last
}

// allowedSNs computes the sequence numbers a regular register may return
// for read r: the last write completed before r's invocation plus every
// write concurrent with r. The result is sorted ascending.
func allowedSNs(ws []*Op, r *Op) []core.SeqNum {
	set := make(map[core.SeqNum]bool)
	if last := lastCompletedSN(ws, r); last != core.BottomSN {
		set[last] = true
	}
	for _, w := range ws {
		if w.overlaps(r.Start, r.End) {
			// A write concurrent with the read. Incomplete writes have no
			// recorded value when the workload recorded nothing; guard.
			if w.Completed || !w.Value.IsBottom() {
				set[w.Value.SN] = true
			}
		}
	}
	out := make([]core.SeqNum, 0, len(set))
	for sn := range set {
		out = append(out, sn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Inversion is a new/old inversion: two non-overlapping reads of the SAME
// register where the later read returns an older value — legal for a
// regular register, forbidden for an atomic one. The paper's introduction
// figure depicts exactly this.
type Inversion struct {
	First, Second *Op
	// Reg is the register both reads addressed.
	Reg core.RegisterID
}

// String renders the inversion.
func (iv Inversion) String() string {
	return fmt.Sprintf("read of %v by %v [%d,%d]=#%d precedes read by %v [%d,%d]=#%d",
		iv.Reg, iv.First.Proc, iv.First.Start, iv.First.End, iv.First.Value.SN,
		iv.Second.Proc, iv.Second.Start, iv.Second.End, iv.Second.Value.SN)
}

// FindInversions returns every new/old inversion among completed reads,
// per register — reads of distinct keys are unordered by definition and
// can never invert. An execution with zero regularity violations and zero
// inversions is a legal atomic-register behaviour.
func (h *History) FindInversions() []Inversion {
	readsByKey := make(map[core.RegisterID][]*Op)
	for _, op := range h.ops {
		if op.Kind == OpRead && op.Completed {
			readsByKey[op.Reg] = append(readsByKey[op.Reg], op)
		}
	}
	regs := make([]core.RegisterID, 0, len(readsByKey))
	for reg := range readsByKey {
		regs = append(regs, reg)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	var out []Inversion
	for _, reg := range regs {
		reads := readsByKey[reg]
		sort.SliceStable(reads, func(i, j int) bool { return reads[i].End < reads[j].End })
		for i, r1 := range reads {
			for _, r2 := range reads[i+1:] {
				if r1.End < r2.Start && r1.Value.SN > r2.Value.SN {
					out = append(out, Inversion{First: r1, Second: r2, Reg: reg})
				}
			}
		}
	}
	return out
}

// CheckMonotoneReads returns violations of the per-process session
// guarantee: a single process's successive reads never observe a smaller
// sequence number. The paper does not require this (regularity is a
// global property), but both of its protocols provide it for free — the
// local copy register_i only ever advances — so the checker verifies it
// as an additional implementation invariant. "Successive" is judged in
// RESPONSE order: with pipelined reads, two overlapping reads from one
// process are unordered (the later-invoked one may legally respond first
// with an older value), but whatever a read returned, every read
// responding after it must return at least as new a value.
func (h *History) CheckMonotoneReads() []Violation {
	// Reads are grouped by the process that SERVED them (Op.ServedBy):
	// under forwarding, one client's reads may be served by different
	// replicas, and the monotone invariant belongs to each replica's
	// local copy.
	type procKey struct {
		proc core.ProcessID
		reg  core.RegisterID
	}
	byProc := make(map[procKey][]*Op)
	keys := make([]procKey, 0)
	for _, r := range h.ops {
		if r.Kind != OpRead || !r.Completed {
			continue
		}
		pk := procKey{proc: r.ServedBy(), reg: r.Reg}
		if _, ok := byProc[pk]; !ok {
			keys = append(keys, pk)
		}
		byProc[pk] = append(byProc[pk], r)
	}
	var out []Violation
	for _, pk := range keys {
		reads := byProc[pk]
		sort.SliceStable(reads, func(i, j int) bool { return reads[i].End < reads[j].End })
		// Events within one instant are unordered (the history's own
		// convention — see lastCompletedSN), so reads responding at the
		// SAME End are mutually unconstrained: each is judged only
		// against the max of STRICTLY earlier responses, and a whole
		// same-End group folds into the max together.
		maxSN := core.BottomSN
		var maxOp *Op
		for i := 0; i < len(reads); {
			j := i
			for j < len(reads) && reads[j].End == reads[i].End {
				j++
			}
			groupMax := maxSN
			groupMaxOp := maxOp
			for _, r := range reads[i:j] {
				if maxOp != nil && r.Value.SN < maxSN {
					out = append(out, Violation{
						Read:          r,
						Reg:           r.Reg,
						LastCompleted: maxSN,
						Allowed:       []core.SeqNum{maxSN},
						Reason:        "process read went backwards (session violation)",
					})
				}
				if groupMaxOp == nil || r.Value.SN > groupMax {
					groupMax = r.Value.SN
					groupMaxOp = r
				}
			}
			maxSN, maxOp = groupMax, groupMaxOp
			i = j
		}
	}
	return out
}

// CheckSafe returns the reads violating Lamport's safe-register contract:
// only reads NOT concurrent with any write are constrained (they must
// return the last completed write's value); concurrent reads may return
// anything.
func (h *History) CheckSafe() []Violation {
	wsByKey := h.writesByKey()
	var out []Violation
	for _, r := range h.ops {
		if r.Kind != OpRead || !r.Completed {
			continue
		}
		ws := wsByKey[r.Reg]
		concurrent := false
		for _, w := range ws[1:] { // skip the virtual initial write
			if w.overlaps(r.Start, r.End) {
				concurrent = true
				break
			}
		}
		if concurrent {
			continue
		}
		last := lastCompletedSN(ws, r)
		if r.Value.SN != last {
			out = append(out, Violation{
				Read:          r,
				Reg:           r.Reg,
				LastCompleted: last,
				Allowed:       []core.SeqNum{last},
				Reason:        "non-concurrent read returned wrong value",
			})
		}
	}
	return out
}
