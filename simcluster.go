package churnreg

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"churnreg/internal/churn"
	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/sim"
	"churnreg/internal/spec"
)

// SimCluster is a deterministic simulated dynamic system hosting a keyed
// namespace of regular registers over one membership substrate. All
// methods drive the simulation forward as needed; between calls, virtual
// time stands still. Not safe for concurrent use (the simulation is
// single-threaded by design) — but operations still pipeline: the
// Start*/Await API issues any number of operations, across keys and on
// one key, before driving the simulation until they complete, which is
// the deterministic twin of NetCluster's concurrent callers.
type SimCluster struct {
	opts    options
	sys     *dynsys.System
	history *spec.History
	// shielded counts in-flight operations per invoking process; a process
	// with a positive count is exempt from churn ("the invoking process
	// does not leave" — the paper's liveness precondition).
	shielded map[core.ProcessID]int
	// live tracks outstanding PendingOp handles so settled ops release
	// their shields no matter how the simulation was driven (Await or
	// plain Run) — see sweepSettled.
	live []*PendingOp
	// stepBudget bounds how long a single blocking operation may advance
	// virtual time before reporting a liveness failure.
	stepBudget sim.Duration
}

// NewSimCluster builds a simulated cluster: n bootstrap processes holding
// the initial value, churn running at the configured rate, and the chosen
// protocol on every process.
func NewSimCluster(opt ...Option) (*SimCluster, error) {
	o := defaults()
	for _, f := range opt {
		f(&o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	c := &SimCluster{
		opts:       o,
		shielded:   make(map[core.ProcessID]int),
		stepBudget: sim.Duration(o.opTimeout / o.tick),
	}
	sys, err := dynsys.New(dynsys.Config{
		N:           o.n,
		Delta:       sim.Duration(o.delta),
		Model:       o.model(),
		Factory:     o.factory(),
		Seed:        o.seed,
		ChurnRate:   o.churnRate,
		ChurnPolicy: churn.RemoveRandom,
		MinLifetime: sim.Duration(o.minLifetime),
		Protect:     c.protected,
		Initial:     core.VersionedValue{Val: core.Value(o.initial), SN: 0},
		Placement:   o.placement,
	})
	if err != nil {
		return nil, err
	}
	c.sys = sys
	c.history = spec.NewHistory(core.VersionedValue{Val: core.Value(o.initial), SN: 0})
	return c, nil
}

// Now returns the current virtual time in ticks.
func (c *SimCluster) Now() int64 { return int64(c.sys.Now()) }

// Run advances the simulation by d ticks (churn and in-flight protocol
// activity proceed; no new operations are issued). Pending operations
// that settle during the run release their churn shields here, so a
// caller may drive Start* handles with Run alone and poll Done.
func (c *SimCluster) Run(d int64) {
	_ = c.sys.RunFor(sim.Duration(d))
	c.sweepSettled()
}

// sweepSettled releases the churn shields of every settled handle and
// drops them from the live list. Runs after every simulation advance
// (Run, Await), so a shield outlives its operation by at most one
// driving call — never for the rest of the run.
func (c *SimCluster) sweepSettled() {
	kept := c.live[:0]
	for _, p := range c.live {
		if p.done {
			p.release()
		} else {
			kept = append(kept, p)
		}
	}
	for i := len(kept); i < len(c.live); i++ {
		c.live[i] = nil
	}
	c.live = kept
}

// Size returns the number of processes currently in the system (always n).
func (c *SimCluster) Size() int { return c.sys.Network().Size() }

// ActiveCount returns |A(now)|: processes whose join has returned.
func (c *SimCluster) ActiveCount() int { return len(c.sys.ActiveIDs()) }

// ActiveIDs returns the active processes' identities.
func (c *SimCluster) ActiveIDs() []ProcessID { return c.sys.ActiveIDs() }

// Join makes a fresh process enter the system, then runs the simulation
// until its join operation returns. The paper's liveness theorems say this
// terminates as long as the process stays; the cluster protects it from
// churn while it waits. StaticABD has no join: Join returns at once, the
// passive replica started.
func (c *SimCluster) Join() (ProcessID, error) {
	id, node := c.sys.Spawn()
	if !c.opts.protocol.joins() {
		return id, nil
	}
	// Shield the joiner so "the invoking process does not leave".
	c.shield(id)
	defer c.unshield(id)
	if err := c.await(node.Active, func() bool { return !c.sys.Present(id) }); err != nil {
		return id, fmt.Errorf("churnreg: join %v: %w", id, err)
	}
	return id, nil
}

// Leave makes the process leave the system immediately and forever.
func (c *SimCluster) Leave(id ProcessID) { c.sys.KillProcess(id) }

// Write stores v in register 0 — sugar for WriteKey(DefaultRegister, v).
func (c *SimCluster) Write(v int64) error {
	return c.WriteKey(core.DefaultRegister, v)
}

// WriteKey stores v in one register of the namespace and runs the
// simulation until the write returns ok. The write enters at the process
// that mints the key's sequence numbers (see writerFor). One blocking call at a time is
// the paper's sequential-process discipline; use StartWriteKey/Await to
// pipeline several writes — the protocols serve them concurrently and
// assign sequence numbers in invocation order per key.
func (c *SimCluster) WriteKey(k RegisterID, v int64) error {
	p := c.StartWriteKey(k, v)
	return c.Await(p)
}

// PendingOp is the handle to an operation issued without blocking by
// StartWriteKey or StartReadKeyAt. Drive the simulation (Await, Run)
// until Done; then Err/Value report the outcome. Handles are not safe
// for concurrent use — like the cluster itself, they belong to the one
// goroutine driving the simulation.
type PendingOp struct {
	c    *SimCluster
	proc core.ProcessID
	key  RegisterID
	op   *spec.Op
	read bool

	done bool
	err  error
	val  core.VersionedValue
	// shielded marks that this op holds a churn shield on its invoker.
	// The shield is released when Await OBSERVES completion — not inside
	// the completion callback — so the invoker stays protected through
	// the whole tick its operation completes in, exactly as the blocking
	// API always behaved.
	shielded bool
}

// Done reports whether the operation has completed (or failed).
func (p *PendingOp) Done() bool { return p.done }

// Err returns the operation's failure, if any (nil while pending).
func (p *PendingOp) Err() error { return p.err }

// Value returns the value a completed read returned, or the value a
// completed write stored.
func (p *PendingOp) Value() (int64, error) {
	if !p.done {
		return 0, fmt.Errorf("churnreg: operation still pending")
	}
	if p.err != nil {
		return 0, p.err
	}
	if p.read && p.val.IsBottom() {
		return 0, ErrValueUnavailable
	}
	return int64(p.val.Val), nil
}

// SN returns the sequence number attached to the operation's value
// (-1 while pending, failed, or unavailable).
func (p *PendingOp) SN() int64 {
	if !p.done || p.err != nil {
		return -1
	}
	return int64(p.val.SN)
}

// fail settles a pending op with an error, releasing its shield.
func (p *PendingOp) fail(err error) {
	if p.done {
		return
	}
	p.done = true
	p.err = err
	p.c.history.Abandon(p.op)
	p.release()
}

// release drops the op's churn shield (idempotent).
func (p *PendingOp) release() {
	if p.shielded {
		p.shielded = false
		p.c.unshield(p.proc)
	}
}

func (c *SimCluster) shield(id core.ProcessID) { c.shielded[id]++ }
func (c *SimCluster) unshield(id core.ProcessID) {
	if c.shielded[id]--; c.shielded[id] <= 0 {
		delete(c.shielded, id)
	}
}

// StartWriteKey issues a write without driving the simulation and returns
// its handle. Any number of writes may be in flight — across keys and
// pipelined on one key (one key's writes all enter at one process, so
// the per-key cross-process discipline holds by construction). A failed
// invocation returns an already-settled handle.
func (c *SimCluster) StartWriteKey(k RegisterID, v int64) *PendingOp {
	p := &PendingOp{c: c, key: k}
	id, err := c.writerFor(k)
	if err != nil {
		p.op = c.history.BeginWriteKey(core.NoProcess, k, c.sys.Now())
		p.done, p.err = true, err
		c.history.Abandon(p.op)
		return p
	}
	p.proc = id
	node := c.sys.Node(id)
	p.op = c.history.BeginWriteKey(id, k, c.sys.Now())
	c.shield(id)
	p.shielded = true
	c.live = append(c.live, p)
	// A write that fails after invocation (a sharded write queued behind
	// a handoff that moved the key's primary) was not applied.
	err = node.(core.Ops).Write(k, core.Value(v), func(vv core.VersionedValue, werr error) {
		if werr != nil {
			p.fail(fmt.Errorf("churnreg: write %v: %w", k, werr))
			return
		}
		if !p.done {
			c.history.CompleteWrite(p.op, c.sys.Now(), vv)
			p.done, p.val = true, vv
		}
	})
	if err != nil {
		p.fail(fmt.Errorf("churnreg: write %v: %w", k, err))
	}
	return p
}

// StartReadKeyAt issues a read via a specific active process without
// driving the simulation. Local-read protocols settle immediately; quorum
// reads settle during Await/Run. Any number may be in flight, on any mix
// of keys and processes. Sharded, a synchronous read outside k's replica
// group fails at once, unserved; a quorum read there asks the group.
func (c *SimCluster) StartReadKeyAt(id ProcessID, k RegisterID) *PendingOp {
	p := &PendingOp{c: c, proc: id, key: k, read: true}
	node := c.sys.Node(id)
	p.op = c.history.BeginReadKey(id, k, c.sys.Now())
	if node == nil {
		p.done, p.err = true, fmt.Errorf("churnreg: %v: %w", id, ErrNoActiveProcess)
		c.history.Abandon(p.op)
		return p
	}
	c.shield(id)
	p.shielded = true
	c.live = append(c.live, p)
	err := node.(core.Ops).Read(k, func(v core.VersionedValue, _ core.ProcessID, rerr error) {
		if rerr != nil {
			p.fail(fmt.Errorf("churnreg: read %v: %w", k, rerr))
			return
		}
		if !p.done {
			c.history.CompleteRead(p.op, c.sys.Now(), v)
			p.done, p.val = true, v
		}
	})
	if err != nil {
		p.fail(fmt.Errorf("churnreg: read %v: %w", k, err))
	}
	return p
}

// Await drives the simulation until every given operation settles (or its
// invoker leaves, or the step budget of WithOperationTimeout runs out). It
// returns the first error among the given handles — individual outcomes
// stay readable per handle, so pipelined callers can await a whole burst
// and then inspect each op.
func (c *SimCluster) Await(pops ...*PendingOp) error {
	var spent sim.Duration
	for {
		pending := 0
		for _, p := range pops {
			if p.done {
				p.release()
				continue
			}
			if !c.sys.Present(p.proc) {
				p.fail(fmt.Errorf("churnreg: %s %v: invoking process left the system", p.opName(), p.key))
				continue
			}
			pending++
		}
		if pending == 0 {
			break
		}
		if spent >= c.stepBudget {
			for _, p := range pops {
				p.fail(fmt.Errorf("churnreg: %s %v: no progress after %d ticks (liveness lost?)", p.opName(), p.key, spent))
			}
			break
		}
		if err := c.sys.RunFor(1); err != nil {
			c.sweepSettled()
			return err
		}
		spent++
	}
	c.sweepSettled()
	for _, p := range pops {
		if p.err != nil {
			return p.err
		}
	}
	return nil
}

func (p *PendingOp) opName() string {
	if p.read {
		return "read"
	}
	return "write"
}

// WriteBatch stores several keys' values, running the simulation until
// every write returns: one StartWriteKey per key, in key order, all in
// flight at once, each entering where its key's sequence numbers are
// minted (see writerFor). It returns the first failure in key order; a
// batch with more keys at one process than its operation table holds
// (core.MaxInFlightOps) fails there with backpressure. A batch is not
// atomic; the history records one write per key.
func (c *SimCluster) WriteBatch(kvs map[RegisterID]int64) error {
	ks := make([]RegisterID, 0, len(kvs))
	for k := range kvs {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	pops := make([]*PendingOp, len(ks))
	for i, k := range ks {
		pops[i] = c.StartWriteKey(k, kvs[k])
	}
	return c.Await(pops...)
}

// Read returns register 0's value as seen by a random replica (see
// ReadKey), running the simulation until the read returns.
func (c *SimCluster) Read() (int64, error) {
	return c.ReadKey(core.DefaultRegister)
}

// ReadKey returns one register's value as seen by a random active
// replica of it (a joining one would refuse) — any active process when
// unsharded. A synchronous read refused because its replica lost the
// shard while the read waited on a handoff is asked again, at most once
// per active process.
func (c *SimCluster) ReadKey(k RegisterID) (v int64, err error) {
	err = ErrNoActiveProcess
	for range c.sys.ActiveIDs() {
		ids := c.sys.ActiveIDs()
		if view := c.sys.Placement(); view != nil {
			ids = slices.DeleteFunc(slices.Clone(view.Group(k)), func(id ProcessID) bool { return !c.sys.Node(id).Active() })
		}
		if len(ids) == 0 {
			return 0, ErrNoActiveProcess
		}
		if v, err = c.ReadKeyAt(ids[c.sys.Rand().Intn(len(ids))], k); !errors.Is(err, core.ErrUnroutable) {
			return v, err
		}
	}
	return 0, err
}

// ReadAt reads register 0 via a specific active process.
func (c *SimCluster) ReadAt(id ProcessID) (int64, error) {
	return c.ReadKeyAt(id, core.DefaultRegister)
}

// ReadKeyAt reads one register via a specific active process, blocking
// until the read returns, by StartReadKeyAt's rules. Use
// StartReadKeyAt/Await to pipeline reads.
func (c *SimCluster) ReadKeyAt(id ProcessID, k RegisterID) (int64, error) {
	p := c.StartReadKeyAt(id, k)
	if err := c.Await(p); err != nil {
		return 0, err
	}
	return p.Value()
}

// PendingOps sums the in-flight operation-table entries across every
// present node — 0 at quiescence (leak check; see core.OpAccountant).
func (c *SimCluster) PendingOps() int {
	total := 0
	c.sys.ForEachNode(func(_ core.ProcessID, n core.Node) {
		if a, ok := n.(core.OpAccountant); ok {
			total += a.PendingOps()
		}
	})
	return total
}

// writerFor returns the process a write of k enters at, Route's attempt 0
// over the active processes: sharded, the key's primary, the one process
// that mints its sequence numbers (it refuses a write anywhere else);
// unsharded, the lowest active id, which churn never removes.
func (c *SimCluster) writerFor(k RegisterID) (core.ProcessID, error) {
	if id := c.sys.Placement().Route(c.sys.ActiveIDs(), k, 0); id != core.NoProcess {
		return id, nil
	}
	return core.NoProcess, ErrNoActiveProcess
}

// protected exempts from churn every process with an operation in flight
// ("the invoking process does not leave") and, unsharded, the writer, so
// every key's sequence numbers stay in one process's hands.
func (c *SimCluster) protected(id core.ProcessID) bool {
	if c.shielded[id] > 0 {
		return true
	}
	if c.opts.placement.Enabled() {
		return false
	}
	w, _ := c.writerFor(core.DefaultRegister)
	return id == w
}

// await advances the simulation until done, the abort condition, or the
// step budget is exhausted.
func (c *SimCluster) await(done, aborted func() bool) error {
	var spent sim.Duration
	for !done() {
		if aborted != nil && aborted() {
			return fmt.Errorf("invoking process left the system")
		}
		if spent >= c.stepBudget {
			return fmt.Errorf("no progress after %d ticks (liveness lost?)", spent)
		}
		if err := c.sys.RunFor(1); err != nil {
			return err
		}
		spent++
	}
	return nil
}

// CheckReport summarizes correctness over everything the cluster recorded.
type CheckReport struct {
	// Reads / Writes completed.
	Reads, Writes int
	// RegularViolations lists reads no regular register could return.
	RegularViolations []string
	// ViolationsByKey attributes each regularity violation to the
	// register it occurred on (nil when there are none).
	ViolationsByKey map[RegisterID]int
	// Inversions counts new/old inversions — legal for a regular
	// register, but the reason this register is not atomic.
	Inversions int
	// WriteOrder reports the first write that breaks the per-key write
	// discipline: cross-process writes to one key overlapping, or a write
	// whose sequence number is not above one that completed before it
	// started (a lost write regularity cannot see, since it orders writes
	// by sequence number).
	WriteOrder error
}

// OK reports whether the execution is a legal regular-register behaviour.
func (r CheckReport) OK() bool { return len(r.RegularViolations) == 0 && r.WriteOrder == nil }

// String renders the report.
func (r CheckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "reads=%d writes=%d inversions=%d violations=%d",
		r.Reads, r.Writes, r.Inversions, len(r.RegularViolations))
	if r.WriteOrder != nil {
		fmt.Fprintf(&b, "\n  write order: %v", r.WriteOrder)
	}
	for _, v := range r.RegularViolations {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return b.String()
}

// Check verifies every operation issued through this cluster against the
// regular-register specification and the per-key write order.
func (c *SimCluster) Check() CheckReport {
	counts := c.history.Counts()
	rep := CheckReport{
		Reads:      counts.ReadsCompleted,
		Writes:     counts.WritesCompleted,
		Inversions: len(c.history.FindInversions()),
		WriteOrder: c.history.ValidateWrites(),
	}
	for _, v := range c.history.CheckRegular() {
		rep.RegularViolations = append(rep.RegularViolations, v.String())
		if rep.ViolationsByKey == nil {
			rep.ViolationsByKey = make(map[RegisterID]int)
		}
		rep.ViolationsByKey[v.Reg]++
	}
	return rep
}
