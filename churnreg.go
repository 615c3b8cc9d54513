// Package churnreg implements regular registers for dynamic distributed
// systems with constant churn, reproducing "Implementing a Register in a
// Dynamic Distributed System" (Baldoni, Bonomi, Kermarrec, Raynal —
// ICDCS 2009 / IRISA PI 1913).
//
// A regular register is a shared read/write object whose reads return the
// last value written before the read began, or a value written
// concurrently with it. The package provides the paper's two protocols —
// one for synchronous systems (fast local reads; churn bound c < 1/(3δ))
// and one for eventually synchronous systems (majority quorums; churn
// bound c ≤ 1/(3δn)) — plus a static-membership ABD-style baseline, over
// two runtimes:
//
//   - SimCluster: a deterministic discrete-event simulation with a churn
//     engine and built-in correctness checking. Every run is a pure
//     function of its options; this is what the experiment suite uses.
//   - NetCluster: a real-time runtime running the identical protocol state
//     machines over loopback TCP — each process a listener that speaks the
//     wire codec, the same transport cmd/regserve deploys across machines.
//
// Beyond the paper's single register, every cluster hosts a KEYED
// NAMESPACE of independent regular registers over one membership
// substrate: ReadKey/WriteKey address any RegisterID (keys spring up on
// first use; Read/Write are key-0 sugar), a process joins ONCE however
// many keys it serves (join replies carry a snapshot of the replier's
// whole register space), and the checker verifies regularity per key.
//
// Quick start:
//
//	c, err := churnreg.NewSimCluster(
//		churnreg.WithN(20),
//		churnreg.WithDelta(5),
//		churnreg.WithChurnRate(0.01),
//	)
//	if err != nil { ... }
//	_ = c.Write(42)
//	v, _ := c.Read()        // 42
//	id, _ := c.Join()       // a new process enters and completes its join
//	v2, _ := c.ReadAt(id)   // 42 — the joiner learned the value
//	report := c.Check()     // regularity verdict over everything recorded
package churnreg

import (
	"errors"
	"fmt"
	"time"

	"churnreg/internal/abd"
	"churnreg/internal/core"
	"churnreg/internal/esyncreg"
	"churnreg/internal/netsim"
	"churnreg/internal/placement"
	"churnreg/internal/shard"
	"churnreg/internal/sim"
	"churnreg/internal/syncreg"
)

// Protocol selects a register implementation.
type Protocol int

const (
	// Synchronous is the §3 protocol: reads are local and free; writes
	// take exactly δ; joins take 3δ; requires churn c < 1/(3δ) and a
	// network that really delivers within δ.
	Synchronous Protocol = iota + 1
	// EventuallySynchronous is the §5 protocol: majority-quorum reads,
	// writes, and joins; time-free; requires a majority of the n
	// processes active and churn c ≤ 1/(3δn).
	EventuallySynchronous
	// StaticABD is the static-membership baseline the paper contrasts
	// with: correct without churn, degrades under it (no join protocol).
	StaticABD
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case Synchronous:
		return "synchronous"
	case EventuallySynchronous:
		return "eventually-synchronous"
	case StaticABD:
		return "static-abd"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// ErrNoActiveProcess is returned when an operation finds no active process
// to run on.
var ErrNoActiveProcess = errors.New("churnreg: no active process available")

// ErrValueUnavailable is returned when a read cannot produce a value.
var ErrValueUnavailable = errors.New("churnreg: register value unavailable")

// options collects cluster configuration; adjusted via Option functions.
type options struct {
	n           int
	delta       int64
	churnRate   float64
	seed        uint64
	protocol    Protocol
	initial     int64
	gst         int64
	preGSTMax   int64
	minLifetime int64
	tick        time.Duration
	opTimeout   time.Duration
	placement   placement.Config
}

func defaults() options {
	return options{
		n:         10,
		delta:     5,
		seed:      1,
		protocol:  Synchronous,
		gst:       -1, // synchronous timing throughout
		tick:      time.Millisecond,
		opTimeout: 30 * time.Second,
	}
}

// Option configures a cluster.
type Option func(*options)

// WithN sets the constant system size n (default 10).
func WithN(n int) Option { return func(o *options) { o.n = n } }

// WithDelta sets the communication bound δ in ticks (default 5).
func WithDelta(delta int64) Option { return func(o *options) { o.delta = delta } }

// WithChurnRate sets the churn rate c: the fraction of the n processes
// replaced per tick (default 0; must be in [0, 1)).
func WithChurnRate(c float64) Option { return func(o *options) { o.churnRate = c } }

// WithSeed sets the deterministic seed (default 1). Only SimCluster uses
// it; NetCluster's schedule is the operating system's.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithProtocol selects the register implementation (default Synchronous).
func WithProtocol(p Protocol) Option { return func(o *options) { o.protocol = p } }

// WithInitialValue sets register 0's initial value (default 0).
func WithInitialValue(v int64) Option { return func(o *options) { o.initial = v } }

// WithGST makes the simulated network eventually synchronous: before tick
// gst, message delays are unbounded (up to preGSTMax); from gst on they
// respect δ. Only meaningful for SimCluster.
func WithGST(gst, preGSTMax int64) Option {
	return func(o *options) { o.gst, o.preGSTMax = gst, preGSTMax }
}

// WithMinLifetime prevents churn from removing processes younger than d
// ticks (the eventually synchronous analysis assumes joiners stay ≥ 3δ).
func WithMinLifetime(d int64) Option { return func(o *options) { o.minLifetime = d } }

// WithTick sets the real duration of one tick for NetCluster (default
// 1ms; δ×tick must comfortably exceed loopback round-trips plus OS timer
// slop for the synchronous protocol).
func WithTick(d time.Duration) Option { return func(o *options) { o.tick = d } }

// WithOperationTimeout bounds how long cluster-level operations wait
// (default 30s; SimCluster converts it to a simulated-step budget).
func WithOperationTimeout(d time.Duration) Option { return func(o *options) { o.opTimeout = d } }

// WithShards shards the keyspace: RegisterID → one of s shards (via
// consistent hashing) → a replica group of r processes over the live
// membership. Each process then holds — and each write's broadcast and
// quorum reaches — only the R replicas of the key's shard instead of the
// whole membership, so adding processes adds CAPACITY, not just fault
// tolerance. Operations invoked on a non-replica are forwarded to the
// group (reads to any member, writes to the shard primary), and
// membership changes move exactly the shards whose groups changed
// (snapshot handoff; see internal/shard). With r < n the per-key quorum
// shrinks from ⌊n/2⌋+1 to ⌊r/2⌋+1 — the quorum-intersection argument
// holds per shard. s = 0 (the default) disables sharding: every process
// replicates every key, the pre-sharding behavior, bit for bit.
func WithShards(s, r int) Option {
	return func(o *options) { o.placement = placement.Config{Shards: s, Replication: r} }
}

func (o options) validate() error {
	if o.n <= 0 {
		return fmt.Errorf("churnreg: n = %d, want > 0", o.n)
	}
	if o.delta < 1 {
		return fmt.Errorf("churnreg: delta = %d, want >= 1", o.delta)
	}
	if o.churnRate < 0 || o.churnRate >= 1 {
		return fmt.Errorf("churnreg: churn rate = %v, want [0, 1)", o.churnRate)
	}
	switch o.protocol {
	case Synchronous, EventuallySynchronous, StaticABD:
	default:
		return fmt.Errorf("churnreg: unknown protocol %d", int(o.protocol))
	}
	if err := o.placement.Validate(); err != nil {
		return fmt.Errorf("churnreg: %w", err)
	}
	return nil
}

// factory returns the protocol node factory for the options, wrapped in
// the sharding layer when WithShards is in effect.
func (o options) factory() core.NodeFactory {
	var f core.NodeFactory
	switch o.protocol {
	case EventuallySynchronous:
		f = esyncreg.Factory(esyncreg.Options{})
	case StaticABD:
		f = abd.Factory()
	default:
		f = syncreg.Factory(syncreg.Options{})
	}
	if o.placement.Enabled() {
		f = shard.Factory(f)
	}
	return f
}

// model returns the network delay model for the options.
func (o options) model() netsim.DelayModel {
	if o.gst >= 0 {
		return netsim.EventuallySynchronousModel{
			GST:       sim.Time(o.gst),
			Delta:     sim.Duration(o.delta),
			PreGSTMax: sim.Duration(o.preGSTMax),
		}
	}
	return netsim.SynchronousModel{Delta: sim.Duration(o.delta)}
}

// SyncChurnBound returns 1/(3δ), the synchronous protocol's churn bound.
func SyncChurnBound(delta int64) float64 { return 1.0 / (3.0 * float64(delta)) }

// ESyncChurnBound returns 1/(3δn), the eventually synchronous protocol's
// churn bound.
func ESyncChurnBound(delta int64, n int) float64 {
	return 1.0 / (3.0 * float64(delta) * float64(n))
}

// ProcessID identifies a process in a cluster (re-exported for callers).
type ProcessID = core.ProcessID

// RegisterID names one register of a cluster's keyed namespace
// (re-exported for callers). Key 0 is the register the plain Read/Write
// methods address; ReadKey/WriteKey reach the rest. Registers spring into
// existence on first use — there is no create step and no bound on the
// number of keys — while the churn-bound join machinery runs once per
// process regardless of how many keys it touches.
type RegisterID = core.RegisterID
