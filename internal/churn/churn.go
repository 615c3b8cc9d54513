// Package churn implements the paper's constant-churn dynamicity model
// (§2.1): the system size stays n while, at every time unit, c·n processes
// leave and c·n new processes enter (infinite-arrival model — fresh
// identities, never reused). It also provides the active-set accounting
// used to check Lemma 2 (|A(τ, τ+3δ)| ≥ n(1 − 3δc)).
package churn

import (
	"fmt"

	"churnreg/internal/core"
	"churnreg/internal/sim"
)

// RemovePolicy selects which present process leaves at a churn event.
type RemovePolicy int

const (
	// RemoveRandom removes a uniformly random eligible process.
	RemoveRandom RemovePolicy = iota + 1
	// RemoveOldestActive removes the longest-active eligible process —
	// the worst case Lemma 2 reasons about ("the nc processes that left
	// were present at time τ").
	RemoveOldestActive
)

// String names the policy.
func (p RemovePolicy) String() string {
	switch p {
	case RemoveRandom:
		return "random"
	case RemoveOldestActive:
		return "oldest-active"
	default:
		return fmt.Sprintf("RemovePolicy(%d)", int(p))
	}
}

// Host is the system the engine drives. internal/dynsys implements it.
type Host interface {
	// SpawnProcess creates a fresh process (new identity), attaches it to
	// the network, and starts its join operation.
	SpawnProcess() core.ProcessID
	// KillProcess makes the process leave the system immediately.
	KillProcess(id core.ProcessID)
}

// Config parameterizes the engine.
type Config struct {
	// N is the constant system size n.
	N int
	// Rate is the churn rate c: the fraction of the n processes refreshed
	// per time unit. c·n may be < 1; a fractional accumulator preserves
	// the long-run rate.
	Rate float64
	// RateAt, when non-nil, makes churn time-varying: it returns the rate
	// for each time unit (Rate is then only used to decide whether the
	// engine runs at all — set it to any positive value). The paper's
	// model is constant churn; the bursty-churn experiment (E12) uses
	// this to probe its open question about the greatest sustainable c:
	// what matters is the rate within each 3δ window, not the mean.
	RateAt func(now sim.Time) float64
	// Policy selects leavers; default RemoveRandom.
	Policy RemovePolicy
	// MinLifetime, when > 0, exempts processes present for less than this
	// from removal. The eventually synchronous proofs (Lemmas 5–7) assume
	// joiners remain for at least 3δ; experiments set this accordingly.
	MinLifetime sim.Duration
	// Protect, when non-nil, exempts specific processes from removal
	// (e.g. a writer mid-write, matching the liveness assumption that the
	// invoking process does not leave).
	Protect func(core.ProcessID) bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("churn: N = %d, want > 0", c.N)
	}
	if c.Rate < 0 || c.Rate >= 1 {
		return fmt.Errorf("churn: rate = %v, want [0, 1)", c.Rate)
	}
	return nil
}

// SyncChurnBound returns 1/(3δ), the synchronous protocol's churn bound.
func SyncChurnBound(delta sim.Duration) float64 { return 1.0 / (3.0 * float64(delta)) }

// ESyncChurnBound returns 1/(3δn), the eventually synchronous protocol's
// churn bound.
func ESyncChurnBound(delta sim.Duration, n int) float64 {
	return 1.0 / (3.0 * float64(delta) * float64(n))
}

// Stats reports engine activity.
type Stats struct {
	Joins          uint64
	Leaves         uint64
	SkippedRemoves uint64 // churn events with no eligible victim
}

// Engine replaces c·n processes per time unit. It is driven by the
// scheduler (one event per time unit) and is single-threaded.
type Engine struct {
	cfg     Config
	sched   *sim.Scheduler
	rng     *sim.RNG
	host    Host
	tracker *Tracker
	acc     float64
	stats   Stats
	stopped bool
}

// NewEngine builds an engine. tracker may be shared with the host so that
// eligibility checks see entry/activation times.
func NewEngine(cfg Config, sched *sim.Scheduler, rng *sim.RNG, host Host, tracker *Tracker) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == 0 {
		cfg.Policy = RemoveRandom
	}
	return &Engine{cfg: cfg, sched: sched, rng: rng, host: host, tracker: tracker}, nil
}

// Stats returns engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Start schedules the per-time-unit churn tick. Call once.
func (e *Engine) Start() {
	if e.cfg.Rate == 0 {
		return
	}
	e.sched.After(1, e.tick)
}

// Stop halts future churn events.
func (e *Engine) Stop() { e.stopped = true }

func (e *Engine) tick() {
	if e.stopped {
		return
	}
	rate := e.cfg.Rate
	if e.cfg.RateAt != nil {
		rate = e.cfg.RateAt(e.sched.Now())
	}
	e.acc += rate * float64(e.cfg.N)
	for e.acc >= 1 {
		e.acc--
		e.churnOne()
	}
	e.sched.After(1, e.tick)
}

// churnOne performs a single refresh: one leave followed by one join,
// keeping the population at n.
func (e *Engine) churnOne() {
	victim, ok := e.pickVictim()
	if !ok {
		e.stats.SkippedRemoves++
		return
	}
	e.host.KillProcess(victim)
	e.stats.Leaves++
	e.host.SpawnProcess()
	e.stats.Joins++
}

func (e *Engine) pickVictim() (core.ProcessID, bool) {
	now := e.sched.Now()
	eligible := e.tracker.presentFiltered(func(r *Record) bool {
		if e.cfg.MinLifetime > 0 && now.Sub(r.Entered) < e.cfg.MinLifetime {
			return false
		}
		if e.cfg.Protect != nil && e.cfg.Protect(r.ID) {
			return false
		}
		return true
	})
	if len(eligible) == 0 {
		return core.NoProcess, false
	}
	switch e.cfg.Policy {
	case RemoveOldestActive:
		best := -1
		for i, r := range eligible {
			if !r.IsActive() {
				continue
			}
			if best == -1 || r.Activated < eligible[best].Activated {
				best = i
			}
		}
		if best >= 0 {
			return eligible[best].ID, true
		}
		// No active process is eligible; fall back to random so churn
		// keeps flowing (the paper's model always finds leavers).
		return eligible[e.rng.Intn(len(eligible))].ID, true
	default:
		return eligible[e.rng.Intn(len(eligible))].ID, true
	}
}
