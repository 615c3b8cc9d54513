// Package netsim simulates the paper's communication substrate: a reliable
// point-to-point network plus the broadcast service of §3.2/§5.1, with
// pluggable timing models for the three system classes the paper studies
// (synchronous, eventually synchronous, fully asynchronous).
//
// Semantics implemented exactly as the paper defines them:
//
//   - Reliability: the network neither loses, creates, nor modifies
//     messages; a message is dropped only when its destination has left the
//     system before delivery (a departed process "does not longer send or
//     receive messages"), or when a test injects a fault on purpose.
//   - Timely delivery (synchronous): a message sent at τ is received by
//     τ+δ if the destination has not left by then.
//   - Broadcast timely delivery: the processes that are in the system at
//     broadcast time τ and do not leave by τ+δ deliver the message by τ+δ.
//     Processes that enter after τ are NOT guaranteed delivery — the
//     snapshot-at-send semantics Figure 3a depends on.
//   - Eventual timely delivery (eventually synchronous): there is a time
//     GST and bound δ such that messages sent at or after GST are delivered
//     within δ; earlier messages are delivered after a finite but
//     unbounded delay.
//
// Every message crosses the daemon's codec, internal/wire: Send and
// Broadcast encode it once, as the frame nettransport writes, and each
// delivery decodes its own copy. Receivers therefore never share memory
// with the sender, Stats.BytesSent counts encoded frames (length prefix
// included), and a message the codec cannot carry panics at send.
package netsim

import (
	"fmt"
	"sort"

	"churnreg/internal/core"
	"churnreg/internal/sim"
	"churnreg/internal/wire"
)

// Endpoint receives messages on behalf of one process.
type Endpoint interface {
	ID() core.ProcessID
	Deliver(from core.ProcessID, m core.Message)
}

// DelayModel decides the transit delay of each message. Implementations
// draw from the supplied RNG only, keeping runs deterministic. The message
// kind is exposed so scripted scenarios and message adversaries can target
// specific protocol traffic (e.g. slow WRITEs with fast INQUIRYs realize
// Figure 3a).
type DelayModel interface {
	// Delay returns the transit time for a message of the given kind sent
	// at 'at' from 'from' to 'to'.
	Delay(rng *sim.RNG, from, to core.ProcessID, at sim.Time, kind core.MsgKind) sim.Duration
}

// LoopbackDelay is the fixed delay for a process delivering its own
// broadcast to itself: local delivery is one tick regardless of the model.
const LoopbackDelay sim.Duration = 1

// DropRule lets tests inject message loss or partitions. Returning true
// drops the message. A nil rule drops nothing (the paper's network is
// reliable; injection exists to prove the checkers catch violations when
// the model's axioms are broken).
type DropRule func(from, to core.ProcessID, m core.Message, at sim.Time) bool

// TraceFunc observes message lifecycle events when tracing is enabled.
type TraceFunc func(ev TraceEvent)

// TraceEvent describes one message send or delivery.
type TraceEvent struct {
	At        sim.Time
	From, To  core.ProcessID
	Kind      core.MsgKind
	Delivered bool // false = sent, true = delivered
	Dropped   bool // delivery suppressed (departed destination or injected)
}

// Stats aggregates network accounting for the metrics layer.
type Stats struct {
	Sent             uint64
	Delivered        uint64
	DroppedDeparted  uint64
	DroppedInjected  uint64
	BytesSent        uint64 // encoded frame bytes, length prefixes included
	Broadcasts       uint64
	SentByKind       map[core.MsgKind]uint64
	DeliveredByKind  map[core.MsgKind]uint64
	MaxObservedDelay sim.Duration
}

// Network is the simulated message-passing system. It is driven entirely by
// the scheduler, so it is single-threaded and needs no locking.
type Network struct {
	sched     *sim.Scheduler
	rng       *sim.RNG
	model     DelayModel
	endpoints map[core.ProcessID]Endpoint
	drop      DropRule
	trace     TraceFunc
	stats     Stats
}

// New creates a network over sched using model for timing. rng must be a
// dedicated stream (fork it from the run's root RNG).
func New(sched *sim.Scheduler, rng *sim.RNG, model DelayModel) *Network {
	return &Network{
		sched:     sched,
		rng:       rng,
		model:     model,
		endpoints: make(map[core.ProcessID]Endpoint),
		stats: Stats{
			SentByKind:      make(map[core.MsgKind]uint64),
			DeliveredByKind: make(map[core.MsgKind]uint64),
		},
	}
}

// SetDropRule installs a fault-injection rule (tests only; nil clears).
func (n *Network) SetDropRule(r DropRule) { n.drop = r }

// SetTrace installs a trace observer (nil disables).
func (n *Network) SetTrace(f TraceFunc) { n.trace = f }

// Stats returns a copy of the accumulated counters.
func (n *Network) Stats() Stats {
	cp := n.stats
	cp.SentByKind = make(map[core.MsgKind]uint64, len(n.stats.SentByKind))
	for k, v := range n.stats.SentByKind {
		cp.SentByKind[k] = v
	}
	cp.DeliveredByKind = make(map[core.MsgKind]uint64, len(n.stats.DeliveredByKind))
	for k, v := range n.stats.DeliveredByKind {
		cp.DeliveredByKind[k] = v
	}
	return cp
}

// Attach registers ep as present in the system. From this instant the
// process is in listening mode: it receives point-to-point messages and is
// included in broadcast snapshots.
func (n *Network) Attach(ep Endpoint) {
	n.endpoints[ep.ID()] = ep
}

// Detach removes the process from the system. In-flight messages to it are
// dropped at their delivery instant.
func (n *Network) Detach(id core.ProcessID) {
	delete(n.endpoints, id)
}

// Present reports whether id is currently in the system.
func (n *Network) Present(id core.ProcessID) bool {
	_, ok := n.endpoints[id]
	return ok
}

// PresentIDs returns the sorted identities currently in the system.
func (n *Network) PresentIDs() []core.ProcessID {
	ids := make([]core.ProcessID, 0, len(n.endpoints))
	for id := range n.endpoints {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Size returns the number of processes currently in the system.
func (n *Network) Size() int { return len(n.endpoints) }

// Send transmits m from 'from' to 'to' over the point-to-point network.
// If the sender has already left the system the message is not sent (a
// departed process no longer sends).
func (n *Network) Send(from, to core.ProcessID, m core.Message) {
	if !n.Present(from) {
		return
	}
	d := n.model.Delay(n.rng, from, to, n.sched.Now(), m.Kind())
	n.transmit(from, to, m, encode(from, m), d)
}

// Broadcast disseminates m to every process present at the send instant,
// including the sender (local loopback, one tick). This is the broadcast
// operation of §3.2: the snapshot is taken at send time, so processes that
// enter later may never deliver the message.
func (n *Network) Broadcast(from core.ProcessID, m core.Message) {
	if !n.Present(from) {
		return
	}
	n.stats.Broadcasts++
	frame := encode(from, m)
	// Deterministic iteration: deliveries are scheduled in ID order so the
	// run is independent of map iteration order.
	for _, id := range n.PresentIDs() {
		var d sim.Duration
		if id == from {
			d = LoopbackDelay
		} else {
			d = n.model.Delay(n.rng, from, id, n.sched.Now(), m.Kind())
		}
		n.transmit(from, id, m, frame, d)
	}
}

// encode renders m as the frame nettransport would write for it, length
// prefix included. A message the codec cannot carry is a bug in the
// sender, so it panics here rather than at some later delivery.
func encode(from core.ProcessID, m core.Message) []byte {
	// 96 bytes hold every frame but a snapshot REPLY of three or more keys.
	b, err := wire.AppendFrameBytes(make([]byte, 0, 96), wire.Frame{Type: wire.FrameMsg, From: from, Msg: m})
	if err != nil {
		panic(fmt.Sprintf("netsim: cannot encode %T: %v", m, err))
	}
	return b
}

// transmit schedules one delivery of frame, the encoding of m. Drop rules
// and trace observers see m; the destination receives its own decoded
// copy, so no two processes ever share a message's memory.
func (n *Network) transmit(from, to core.ProcessID, m core.Message, frame []byte, d sim.Duration) {
	if d < 1 {
		d = 1
	}
	at, kind := n.sched.Now(), m.Kind()
	n.stats.Sent++
	n.stats.BytesSent += uint64(len(frame))
	n.stats.SentByKind[kind]++
	if d > n.stats.MaxObservedDelay {
		n.stats.MaxObservedDelay = d
	}
	if n.trace != nil {
		n.trace(TraceEvent{At: at, From: from, To: to, Kind: kind})
	}
	if n.drop != nil && n.drop(from, to, m, at) {
		n.stats.DroppedInjected++
		if n.trace != nil {
			n.trace(TraceEvent{At: at, From: from, To: to, Kind: kind, Delivered: true, Dropped: true})
		}
		return
	}
	n.sched.After(d, func() {
		ep, ok := n.endpoints[to]
		if !ok {
			// Destination left the system before delivery.
			n.stats.DroppedDeparted++
			if n.trace != nil {
				n.trace(TraceEvent{At: n.sched.Now(), From: from, To: to, Kind: kind, Delivered: true, Dropped: true})
			}
			return
		}
		n.stats.Delivered++
		n.stats.DeliveredByKind[kind]++
		if n.trace != nil {
			n.trace(TraceEvent{At: n.sched.Now(), From: from, To: to, Kind: kind, Delivered: true})
		}
		f, err := wire.DecodeFrame(frame[4:])
		if err != nil {
			panic(fmt.Sprintf("netsim: cannot decode %v: %v", kind, err))
		}
		ep.Deliver(f.From, f.Msg)
	})
}

// String summarizes the network state for debugging.
func (n *Network) String() string {
	return fmt.Sprintf("netsim{present=%d sent=%d delivered=%d}", n.Size(), n.stats.Sent, n.stats.Delivered)
}
