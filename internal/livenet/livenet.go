// Package livenet runs the register protocols in real time: one
// goroutine-confined event loop per process, channels as mailboxes, and
// wall-clock message delays. It implements the same core.Env contract as
// the deterministic simulator, so protocol state machines run unmodified.
//
// The simulator remains the source of every experiment table
// (cmd/experiments); the live runtime exists to show the protocols are
// deployable outside virtual time (examples/socialprofile uses it) and to
// exercise them under real concurrency in tests.
//
// Caveat for the synchronous protocol: its correctness rests on δ really
// bounding delivery. In real time, delivery latency includes Go timer
// scheduling slop (time.AfterFunc granularity is on the order of
// milliseconds under load), so configure Delta×Tick comfortably above it
// — δ of at least a few tens of milliseconds. The quorum-based eventually
// synchronous protocol needs no such budget (it is time-free), which is
// exactly the paper's point about asynchrony.
//
// Concurrency design: a node's handlers only ever run on its own loop
// goroutine. Everything that touches a node — deliveries, timer callbacks,
// user operations — is enqueued as a closure on the node's mailbox. The
// cluster's shared state (membership) is guarded by one mutex; message
// transfer uses time.AfterFunc goroutines, so senders never block on
// receivers' processing.
package livenet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/nodeops"
	"churnreg/internal/placement"
	"churnreg/internal/sim"
)

// ErrClosed is returned once the cluster has been shut down.
var ErrClosed = errors.New("livenet: cluster closed")

// ErrAbsent is returned when addressing a process that is not present.
var ErrAbsent = errors.New("livenet: process not in the system")

// ErrTimeout is returned when an operation misses its real-time deadline.
// It aliases the shared nodeops sentinel so callers can compare against
// either package's name.
var ErrTimeout = nodeops.ErrTimeout

// Config assembles a live cluster.
type Config struct {
	// N is the bootstrap population and the n every process knows.
	N int
	// Delta is δ in ticks: messages take [1, Delta] ticks.
	Delta sim.Duration
	// Tick is the real duration of one tick (default 1ms).
	Tick time.Duration
	// Factory builds protocol nodes.
	Factory core.NodeFactory
	// Seed feeds the delay RNG.
	Seed uint64
	// Initial is register 0's initial value.
	Initial core.VersionedValue
	// Initials optionally pre-provisions further registers of the keyed
	// namespace on the bootstrap population (ascending Reg order, no
	// DefaultRegister entry).
	Initials []core.KeyedValue
	// Placement, when enabled, shards the keyspace over the present
	// processes: the cluster rebuilds the view on every Spawn/Kill and
	// notifies placement-aware nodes on their loops. Pair it with a
	// shard.Factory-wrapped protocol factory.
	Placement placement.Config
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("livenet: N = %d, want > 0", c.N)
	}
	if c.Delta < 1 {
		return fmt.Errorf("livenet: Delta = %d, want >= 1", c.Delta)
	}
	if c.Factory == nil {
		return fmt.Errorf("livenet: nil factory")
	}
	if err := c.Placement.Validate(); err != nil {
		return fmt.Errorf("livenet: %w", err)
	}
	return nil
}

// Cluster is a running real-time system.
type Cluster struct {
	cfg   Config
	start time.Time

	mu     sync.Mutex
	procs  map[core.ProcessID]*proc
	nextID core.ProcessID
	rng    *sim.RNG
	closed bool
	// view is the current placement over the present processes (nil when
	// sharding is disabled); viewSeq stamps successive views so node
	// loops can discard out-of-order deliveries. Both guarded by mu.
	view    *placement.View
	viewSeq uint64

	wg sync.WaitGroup
}

// New builds the cluster and starts its n bootstrap processes.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Millisecond
	}
	c := &Cluster{
		cfg:   cfg,
		start: time.Now(),
		procs: make(map[core.ProcessID]*proc),
		rng:   sim.NewRNG(cfg.Seed),
	}
	for i := 0; i < cfg.N; i++ {
		c.spawnLocked(core.SpawnContext{Bootstrap: true, Initial: cfg.Initial, InitialKeys: cfg.Initials})
	}
	c.mu.Lock()
	c.refreshPlacementLocked()
	c.mu.Unlock()
	return c, nil
}

// refreshPlacementLocked rebuilds the view over the present processes
// and posts PlacementChanged to every node's loop. Caller holds mu.
func (c *Cluster) refreshPlacementLocked() {
	if !c.cfg.Placement.Enabled() {
		return
	}
	members := make([]core.ProcessID, 0, len(c.procs))
	for id := range c.procs {
		members = append(members, id)
	}
	view := placement.Build(c.cfg.Placement, members)
	c.viewSeq++
	if view != nil {
		view.SetVersion(c.viewSeq)
	}
	c.view = view
	// Posted from goroutines so a full mailbox cannot deadlock against
	// mu; the version stamp makes out-of-order arrival harmless.
	for _, p := range c.procs {
		p := p
		go p.enqueue(func() {
			if pa, ok := p.node.(core.PlacementAware); ok {
				pa.PlacementChanged(view)
			}
		})
	}
}

// Close shuts down every process and waits for their loops to exit.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for id, p := range c.procs {
		p.stop()
		delete(c.procs, id)
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// Placement returns the cluster's current placement view (nil when
// sharding is disabled) — clients use it for smart routing: sending a
// key's writes straight to its shard primary skips the forwarding hop.
func (c *Cluster) Placement() *placement.View {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view
}

// Spawn adds a fresh process (its join starts immediately) and returns its
// identity.
func (c *Cluster) Spawn() (core.ProcessID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return core.NoProcess, ErrClosed
	}
	p := c.spawnLocked(core.SpawnContext{})
	c.refreshPlacementLocked()
	return p.id, nil
}

func (c *Cluster) spawnLocked(sc core.SpawnContext) *proc {
	c.nextID++
	p := &proc{
		c:       c,
		id:      c.nextID,
		mailbox: make(chan func(), 64),
		quit:    make(chan struct{}),
	}
	c.procs[p.id] = p
	p.node = c.cfg.Factory(p, sc)
	c.wg.Add(1)
	go p.loop(&c.wg)
	p.enqueue(func() { p.node.Start() })
	return p
}

// Kill removes a process: it stops sending, receiving, and firing timers.
func (c *Cluster) Kill(id core.ProcessID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.procs[id]
	if !ok {
		return ErrAbsent
	}
	p.stop()
	delete(c.procs, id)
	c.refreshPlacementLocked()
	return nil
}

// Size returns the number of present processes.
func (c *Cluster) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.procs)
}

// IDs returns the present process identities (unordered).
func (c *Cluster) IDs() []core.ProcessID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]core.ProcessID, 0, len(c.procs))
	for id := range c.procs {
		out = append(out, id)
	}
	return out
}

// Invoke runs fn on the process's loop goroutine — the only legal way to
// touch a node. It returns without waiting for fn to run.
func (c *Cluster) Invoke(id core.ProcessID, fn func(core.Node)) error {
	c.mu.Lock()
	p, ok := c.procs[id]
	c.mu.Unlock()
	if !ok {
		return ErrAbsent
	}
	p.enqueue(func() { fn(p.node) })
	return nil
}

// invoker adapts one process's Invoke to the nodeops contract.
func (c *Cluster) invoker(id core.ProcessID) nodeops.Invoke {
	return func(fn func(core.Node)) error { return c.Invoke(id, fn) }
}

// WaitActive blocks until the process's join has returned, polling on its
// loop goroutine, or until timeout.
func (c *Cluster) WaitActive(id core.ProcessID, timeout time.Duration) error {
	return nodeops.WaitActive(c.invoker(id), c.cfg.Tick, timeout)
}

// Read runs a read of register 0 on the process and waits for its result.
func (c *Cluster) Read(id core.ProcessID, timeout time.Duration) (core.VersionedValue, error) {
	return c.ReadKey(id, core.DefaultRegister, timeout)
}

// ReadKey runs a read of one register on the process and waits for its
// result, routing to the protocol's local or quorum read as available.
func (c *Cluster) ReadKey(id core.ProcessID, reg core.RegisterID, timeout time.Duration) (core.VersionedValue, error) {
	return nodeops.ReadKey(c.invoker(id), reg, timeout)
}

// Write runs a write of register 0 on the process and waits for it to
// return ok, reporting the ⟨v, sn⟩ it stored.
func (c *Cluster) Write(id core.ProcessID, v core.Value, timeout time.Duration) (core.VersionedValue, error) {
	return c.WriteKey(id, core.DefaultRegister, v, timeout)
}

// WriteKey runs a write of one register on the process, waits for it to
// return ok, and reports the exact ⟨v, sn⟩ it stored (see
// nodeops.WriteKey). Safe to call from many goroutines at once: each call
// is its own pipelined operation on the node.
func (c *Cluster) WriteKey(id core.ProcessID, reg core.RegisterID, v core.Value, timeout time.Duration) (core.VersionedValue, error) {
	return nodeops.WriteKey(c.invoker(id), reg, v, timeout)
}

// WriteBatch stores several keys' values via one process and waits for all
// of them: one broadcast for batching protocols, concurrent per-key
// writes otherwise. It reports the stored ⟨v, sn⟩ per entry. Entries must
// be sorted by Reg, no duplicates.
func (c *Cluster) WriteBatch(id core.ProcessID, entries []core.KeyedWrite, timeout time.Duration) ([]core.KeyedValue, error) {
	return nodeops.WriteBatch(c.invoker(id), entries, timeout)
}

// Snapshot returns the node's local register-0 copy (scheduled on its loop).
func (c *Cluster) Snapshot(id core.ProcessID, timeout time.Duration) (core.VersionedValue, error) {
	return c.SnapshotKey(id, core.DefaultRegister, timeout)
}

// SnapshotKey returns the node's local copy of one register.
func (c *Cluster) SnapshotKey(id core.ProcessID, reg core.RegisterID, timeout time.Duration) (core.VersionedValue, error) {
	return nodeops.SnapshotKey(c.invoker(id), reg, timeout)
}

// deliver schedules m's arrival at dest after delay ticks of real time.
func (c *Cluster) deliver(from, to core.ProcessID, m core.Message, delay sim.Duration) {
	d := time.Duration(delay) * c.cfg.Tick
	time.AfterFunc(d, func() {
		c.mu.Lock()
		p, ok := c.procs[to]
		c.mu.Unlock()
		if !ok {
			return // destination left before delivery
		}
		p.enqueue(func() { p.node.Deliver(from, m) })
	})
}

// randDelay draws a delay in [1, Delta] ticks under the cluster lock.
func (c *Cluster) randDelay() sim.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.DurationBetween(1, c.cfg.Delta)
}

// proc is one live process: mailbox-confined node plus env plumbing.
type proc struct {
	c       *Cluster
	id      core.ProcessID
	node    core.Node
	mailbox chan func()
	quit    chan struct{}
	stopped sync.Once
}

var (
	_ core.Env    = (*proc)(nil)
	_ core.Placed = (*proc)(nil)
)

// Placement implements core.Placed: the cluster's current view, nil
// when sharding is disabled.
func (p *proc) Placement() core.PlacementView {
	p.c.mu.Lock()
	defer p.c.mu.Unlock()
	if v := p.c.view; v != nil {
		return v
	}
	return nil
}

func (p *proc) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case fn := <-p.mailbox:
			fn()
		case <-p.quit:
			return
		}
	}
}

// enqueue posts fn to the loop, giving up if the process stops first.
func (p *proc) enqueue(fn func()) {
	select {
	case p.mailbox <- fn:
	case <-p.quit:
	}
}

func (p *proc) stop() {
	p.stopped.Do(func() { close(p.quit) })
}

// ID implements core.Env.
func (p *proc) ID() core.ProcessID { return p.id }

// Now implements core.Env: ticks elapsed since cluster start.
func (p *proc) Now() sim.Time {
	return sim.Time(time.Since(p.c.start) / p.c.cfg.Tick)
}

// Send implements core.Env.
func (p *proc) Send(to core.ProcessID, m core.Message) {
	select {
	case <-p.quit:
		return // departed processes do not send
	default:
	}
	p.c.deliver(p.id, to, m, p.c.randDelay())
}

// Broadcast implements core.Env: snapshot-at-send semantics, loopback to
// self in one tick — the same contract as the simulator.
func (p *proc) Broadcast(m core.Message) {
	select {
	case <-p.quit:
		return
	default:
	}
	p.c.mu.Lock()
	ids := make([]core.ProcessID, 0, len(p.c.procs))
	for id := range p.c.procs {
		ids = append(ids, id)
	}
	p.c.mu.Unlock()
	for _, id := range ids {
		delay := netDelayLoopbackAware(p, id)
		p.c.deliver(p.id, id, m, delay)
	}
}

func netDelayLoopbackAware(p *proc, to core.ProcessID) sim.Duration {
	if to == p.id {
		return 1
	}
	return p.c.randDelay()
}

// After implements core.Env: fn runs on the loop goroutine after d ticks,
// suppressed once the process has left.
func (p *proc) After(d sim.Duration, fn func()) {
	time.AfterFunc(time.Duration(d)*p.c.cfg.Tick, func() {
		p.enqueue(fn)
	})
}

// Delta implements core.Env.
func (p *proc) Delta() sim.Duration { return p.c.cfg.Delta }

// SystemSize implements core.Env.
func (p *proc) SystemSize() int { return p.c.cfg.N }

// MarkActive implements core.Env (membership accounting is the cluster's
// user's concern in the live runtime; nothing to record here).
func (p *proc) MarkActive() {}
