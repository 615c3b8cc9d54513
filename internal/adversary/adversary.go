// Package adversary builds the message schedules behind Theorem 2 (no
// regular register in a fully asynchronous dynamic system) and the other
// negative results the experiments demonstrate.
//
// The impossibility argument is: with churn constantly replacing processes
// and no bound on message delays, every message can be scheduled to arrive
// after its destination (or every informed process) has left the system,
// so the value obtained by any process can always be older than the last
// completed write. These constructors realize that argument as concrete
// delay models for the simulator.
package adversary

import (
	"churnreg/internal/core"
	"churnreg/internal/netsim"
	"churnreg/internal/sim"
)

// TurnoverDelays returns an asynchronous model whose every delay exceeds
// the population turnover time. With churn rate c, the whole population of
// n processes is refreshed every 1/c time units; a message delayed by
// slack/c time units therefore finds its destination departed (and every
// process that knew the written value replaced). slack > 1 adds margin.
//
// Run any of the register protocols under this model with churn c and the
// system starves: joins never assemble replies, quorums never assemble
// ACKs, and the active population decays to nothing — the liveness face of
// Theorem 2.
func TurnoverDelays(c float64, slack float64) netsim.DelayModel {
	if slack < 1 {
		slack = 1
	}
	d := sim.Duration(slack / c)
	if d < 1 {
		d = 1
	}
	return netsim.AsynchronousModel{
		Choose: func(_ *sim.RNG, _, _ core.ProcessID, _ sim.Time, _ core.MsgKind) sim.Duration {
			return d
		},
	}
}

// BrokenDeltaDelays returns a model for running the SYNCHRONOUS protocol
// in an asynchronous world: the protocol trusts the bound δ, but actual
// delays run up to stretch×δ. Writes "complete" after δ while their WRITE
// messages are still in flight, and joins inquire into a system that has
// not heard the news — the safety face of Theorem 2 (a δ-trusting protocol
// cannot be correct without the bound).
//
// Control traffic (INQUIRY/REPLY) keeps honest sub-δ delays so the join
// machinery itself proceeds; only the data path (WRITE) is stretched. This
// is a legal asynchronous schedule: the adversary may delay any message.
func BrokenDeltaDelays(delta sim.Duration, stretch float64) netsim.DelayModel {
	if stretch < 1 {
		stretch = 1
	}
	slow := sim.Duration(float64(delta) * stretch)
	return netsim.ScriptedDelayModel{
		Base: netsim.SynchronousModel{Delta: delta},
		Overrides: map[netsim.Route]sim.Duration{
			{Kind: core.KindWrite}: slow,
		},
	}
}
