// Package dynsys assembles a running dynamic system: the discrete-event
// scheduler, the simulated network, the churn engine, and one protocol node
// per process. It owns the process lifecycle of §2.1 — a process is in
// listening mode from the instant it enters (it can receive and process
// messages while joining), becomes active when its join returns, and on
// leaving neither sends nor receives anything ever again.
package dynsys

import (
	"fmt"
	"sort"

	"churnreg/internal/churn"
	"churnreg/internal/core"
	"churnreg/internal/netsim"
	"churnreg/internal/placement"
	"churnreg/internal/sim"
)

// Config assembles a system.
type Config struct {
	// N is the constant system size n, known to every process.
	N int
	// Delta is the communication bound δ handed to protocol nodes that ask
	// for it (synchronous protocol only).
	Delta sim.Duration
	// Model is the network timing model (synchronous, eventually
	// synchronous, asynchronous, or a scripted scenario model).
	Model netsim.DelayModel
	// Factory builds one protocol node per process.
	Factory core.NodeFactory
	// Seed makes the run reproducible.
	Seed uint64
	// ChurnRate is c, the fraction of n refreshed per time unit.
	ChurnRate float64
	// ChurnRateAt, when non-nil, makes churn time-varying (see
	// churn.Config.RateAt). ChurnRate must still be > 0 to enable the
	// engine.
	ChurnRateAt func(now sim.Time) float64
	// ChurnPolicy selects leavers (default random).
	ChurnPolicy churn.RemovePolicy
	// MinLifetime exempts young processes from removal (see churn.Config).
	MinLifetime sim.Duration
	// Protect exempts processes from removal (see churn.Config).
	Protect func(core.ProcessID) bool
	// Initial is register 0's initial value held by the bootstrap
	// population. The zero value (value 0, sn 0) matches the paper's
	// "register_k contains the initial value, sn_k = 0".
	Initial core.VersionedValue
	// Placement, when enabled, shards the keyspace: the system rebuilds
	// the placement view over the present processes on every membership
	// change, exposes it to protocol nodes via placement.Placed on their
	// Env, and notifies placement.Aware nodes (the internal/shard
	// wrapper) so they run shard handoff. The Factory should wrap its protocol with
	// shard.Factory when this is enabled.
	Placement placement.Config
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("dynsys: N = %d, want > 0", c.N)
	}
	if c.Model == nil {
		return fmt.Errorf("dynsys: nil delay model")
	}
	if c.Factory == nil {
		return fmt.Errorf("dynsys: nil node factory")
	}
	if c.ChurnRate < 0 || c.ChurnRate >= 1 {
		return fmt.Errorf("dynsys: churn rate = %v, want [0, 1)", c.ChurnRate)
	}
	if err := c.Placement.Validate(); err != nil {
		return fmt.Errorf("dynsys: %w", err)
	}
	return nil
}

// System is a running dynamic distributed system.
type System struct {
	cfg        Config
	sched      *sim.Scheduler
	net        *netsim.Network
	tracker    *churn.Tracker
	engine     *churn.Engine
	rng        *sim.RNG
	procs      map[core.ProcessID]*process
	onSpawn    []func(core.ProcessID, core.Node)
	onKill     []func(core.ProcessID)
	onActivate []func(core.ProcessID)
	// view is the current placement over the present processes (nil when
	// sharding is disabled); booting suppresses per-spawn rebuilds while
	// the bootstrap population is constructed.
	view    *placement.View
	booting bool
}

// New builds the system and creates the n bootstrap processes, which are
// active at time 0 and hold the initial value — the paper's initialization.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := sim.NewRNG(cfg.Seed)
	sched := sim.NewScheduler()
	s := &System{
		cfg:     cfg,
		sched:   sched,
		net:     netsim.New(sched, root.Fork(), cfg.Model),
		tracker: churn.NewTracker(),
		rng:     root.Fork(),
		procs:   make(map[core.ProcessID]*process),
	}
	if cfg.ChurnRate > 0 {
		eng, err := churn.NewEngine(churn.Config{
			N:           cfg.N,
			Rate:        cfg.ChurnRate,
			RateAt:      cfg.ChurnRateAt,
			Policy:      cfg.ChurnPolicy,
			MinLifetime: cfg.MinLifetime,
			Protect:     cfg.Protect,
		}, sched, root.Fork(), s, s.tracker)
		if err != nil {
			return nil, err
		}
		s.engine = eng
	}
	s.booting = true
	for i := 0; i < cfg.N; i++ {
		s.spawn(core.SpawnContext{Bootstrap: true, Initial: cfg.Initial})
	}
	s.booting = false
	s.refreshPlacement()
	if s.engine != nil {
		s.engine.Start()
	}
	return s, nil
}

// refreshPlacement rebuilds the placement view over the present
// processes and notifies every placement-aware node. Runs after each
// membership change (and once after bootstrap), inside the simulation's
// single thread, so nodes observe a consistent sequence of views.
func (s *System) refreshPlacement() {
	if !s.cfg.Placement.Enabled() || s.booting {
		return
	}
	members := make([]core.ProcessID, 0, len(s.procs))
	for id := range s.procs {
		members = append(members, id)
	}
	s.view = placement.Build(s.cfg.Placement, members)
	s.ForEachNode(func(_ core.ProcessID, n core.Node) {
		if pa, ok := n.(placement.Aware); ok {
			pa.PlacementChanged(s.view)
		}
	})
}

// Placement returns the current view (nil when unsharded).
func (s *System) Placement() *placement.View { return s.view }

// Scheduler exposes the event scheduler (experiments schedule workload on
// it directly).
func (s *System) Scheduler() *sim.Scheduler { return s.sched }

// Network exposes the simulated network (for stats, tracing, injection).
func (s *System) Network() *netsim.Network { return s.net }

// Tracker exposes lifecycle accounting.
func (s *System) Tracker() *churn.Tracker { return s.tracker }

// Engine exposes the churn engine (nil when churn rate is 0).
func (s *System) Engine() *churn.Engine { return s.engine }

// Rand exposes the system's workload RNG stream.
func (s *System) Rand() *sim.RNG { return s.rng }

// Now returns the current virtual time.
func (s *System) Now() sim.Time { return s.sched.Now() }

// OnSpawn registers a hook invoked after every spawn (bootstrap included if
// registered before New — not possible — so effectively churn spawns and
// manual Spawn calls). Used by workloads to adopt new processes. Multiple
// hooks run in registration order.
func (s *System) OnSpawn(f func(core.ProcessID, core.Node)) {
	s.onSpawn = append(s.onSpawn, f)
}

// OnKill registers a hook invoked when a process leaves.
func (s *System) OnKill(f func(core.ProcessID)) { s.onKill = append(s.onKill, f) }

// OnActivate registers a hook invoked when a process's join returns.
func (s *System) OnActivate(f func(core.ProcessID)) {
	s.onActivate = append(s.onActivate, f)
}

// SpawnProcess implements churn.Host: a fresh process enters and begins
// its join.
func (s *System) SpawnProcess() core.ProcessID {
	id, _ := s.Spawn()
	return id
}

// Spawn creates a fresh (non-bootstrap) process and returns its identity
// and protocol node. Scenario scripts use the node handle directly.
func (s *System) Spawn() (core.ProcessID, core.Node) {
	p := s.spawn(core.SpawnContext{})
	return p.id, p.node
}

func (s *System) spawn(sc core.SpawnContext) *process {
	id := s.tracker.AllocateID()
	p := &process{sys: s, id: id}
	s.procs[id] = p
	s.tracker.Entered(id, s.sched.Now())
	// The process is in listening mode from the instant it enters: attach
	// before Start so it can receive messages during its own join.
	s.net.Attach(p)
	p.node = s.cfg.Factory(p, sc)
	if sc.Bootstrap {
		// Bootstrap processes are active at time 0 by definition.
		s.tracker.MarkBootstrap(id)
		s.tracker.Activated(id, s.sched.Now())
	}
	p.node.Start()
	s.refreshPlacement()
	for _, f := range s.onSpawn {
		f(id, p.node)
	}
	return p
}

// KillProcess implements churn.Host: the process leaves the system
// immediately and forever.
func (s *System) KillProcess(id core.ProcessID) {
	p, ok := s.procs[id]
	if !ok {
		return
	}
	p.departed = true
	s.net.Detach(id)
	s.tracker.Departed(id, s.sched.Now())
	delete(s.procs, id)
	s.refreshPlacement()
	for _, f := range s.onKill {
		f(id)
	}
}

// Node returns the protocol node for a present process (nil if absent).
func (s *System) Node(id core.ProcessID) core.Node {
	if p, ok := s.procs[id]; ok {
		return p.node
	}
	return nil
}

// ForEachNode visits every present process's node in ascending id order
// (deterministic — safe to drive assertions from).
func (s *System) ForEachNode(f func(core.ProcessID, core.Node)) {
	ids := make([]core.ProcessID, 0, len(s.procs))
	for id := range s.procs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		f(id, s.procs[id].node)
	}
}

// Present reports whether id is in the system.
func (s *System) Present(id core.ProcessID) bool {
	_, ok := s.procs[id]
	return ok
}

// ActiveIDs returns the identities of currently active processes.
func (s *System) ActiveIDs() []core.ProcessID { return s.tracker.ActiveIDs() }

// RandomActive returns a uniformly random active process, excluding the
// given identities. ok is false when none qualifies.
func (s *System) RandomActive(exclude ...core.ProcessID) (core.ProcessID, bool) {
	ids := s.tracker.ActiveIDs()
	if len(exclude) > 0 {
		skip := make(map[core.ProcessID]bool, len(exclude))
		for _, e := range exclude {
			skip[e] = true
		}
		kept := ids[:0]
		for _, id := range ids {
			if !skip[id] {
				kept = append(kept, id)
			}
		}
		ids = kept
	}
	if len(ids) == 0 {
		return core.NoProcess, false
	}
	return ids[s.rng.Intn(len(ids))], true
}

// RunFor advances the simulation d time units.
func (s *System) RunFor(d sim.Duration) error { return s.sched.RunFor(d) }

// RunUntil advances the simulation to time t.
func (s *System) RunUntil(t sim.Time) error { return s.sched.RunUntil(t) }

// process binds one protocol node to the system. It implements both
// core.Env (the node's runtime surface) and netsim.Endpoint (delivery).
type process struct {
	sys      *System
	id       core.ProcessID
	node     core.Node
	departed bool
}

var (
	_ core.Env         = (*process)(nil)
	_ placement.Placed = (*process)(nil)
	_ netsim.Endpoint  = (*process)(nil)
)

// Placement implements placement.Placed: the system's current view, nil
// when sharding is disabled.
func (p *process) Placement() *placement.View { return p.sys.view }

// ID implements core.Env and netsim.Endpoint.
func (p *process) ID() core.ProcessID { return p.id }

// Now implements core.Env.
func (p *process) Now() sim.Time { return p.sys.sched.Now() }

// Send implements core.Env.
func (p *process) Send(to core.ProcessID, m core.Message) {
	if p.departed {
		return
	}
	p.sys.net.Send(p.id, to, m)
}

// Broadcast implements core.Env.
func (p *process) Broadcast(m core.Message) {
	if p.departed {
		return
	}
	p.sys.net.Broadcast(p.id, m)
}

// After implements core.Env. The callback is suppressed once the process
// has left: a departed process executes nothing.
func (p *process) After(d sim.Duration, fn func()) {
	p.sys.sched.After(d, func() {
		if p.departed {
			return
		}
		fn()
	})
}

// Delta implements core.Env.
func (p *process) Delta() sim.Duration { return p.sys.cfg.Delta }

// SystemSize implements core.Env.
func (p *process) SystemSize() int { return p.sys.cfg.N }

// MarkActive implements core.Env.
func (p *process) MarkActive() {
	if p.departed {
		return
	}
	p.sys.tracker.Activated(p.id, p.sys.sched.Now())
	for _, f := range p.sys.onActivate {
		f(p.id)
	}
}

// Deliver implements netsim.Endpoint.
func (p *process) Deliver(from core.ProcessID, m core.Message) {
	if p.departed {
		return
	}
	p.node.Deliver(from, m)
}
