// Package atomicreg upgrades the eventually synchronous regular register
// to an ATOMIC one using the classic read-write-back construction (the
// same device that turns ABD's regular reads atomic, cf. the paper's
// references [3],[10]).
//
// The paper builds regular registers because they are achievable under
// churn and cheaper; its introduction spells out the one behaviour that
// separates them from atomic registers — the new/old inversion. This
// package closes that gap: a read first runs the underlying quorum read,
// then WRITES THE VALUE BACK to a majority before returning. Once a read
// returns v, a majority stores at least v, so every later read's quorum
// intersects it and returns ≥ v: no inversion can form. Experiment E11
// demonstrates the difference on a scripted schedule.
//
// The construction piggybacks entirely on the regular protocol's wire
// messages: the write-back is an ordinary WRITE broadcast (same sequence
// number, so it never conflicts with the single writer's discipline), and
// replicas ACK it through the ordinary Figure 6 lines 06-08 path. Cost:
// one extra broadcast round per read.
package atomicreg

import (
	"fmt"

	"churnreg/internal/core"
	"churnreg/internal/esyncreg"
	"churnreg/internal/placement"
)

// Node wraps an eventually synchronous node, upgrading Read to atomic
// semantics via write-back. Writes and joins delegate unchanged.
//
// Unlike the wrapped register — whose operation table pipelines freely —
// this wrapper keeps the paper-era one-read-at-a-time discipline: its
// single write-back slot cannot disambiguate concurrent write-back ACK
// quorums, so a second Read while one is in flight (either phase)
// returns ErrOpInProgress. The pipelined path is the regular register;
// the atomic upgrade is the sequential demonstration of the difference.
type Node struct {
	env   core.Env
	inner *esyncreg.Node

	// reading marks a Read in its quorum phase (before the write-back).
	reading bool
	// Write-back round state.
	wbActive bool
	wbSN     core.SeqNum
	wbAcks   placement.Round
	wbValue  core.VersionedValue
	wbDone   func(core.VersionedValue, error)
	// out holds the records the wrapper sends its write-backs from.
	out core.Outbox

	stats Stats
}

// Stats counts write-back activity.
type Stats struct {
	Reads          uint64
	WriteBacks     uint64 // write-back rounds started (== reads)
	WriteBackAcked uint64 // ACKs consumed by write-backs
}

// New builds an atomic node over a fresh inner regular node.
func New(env core.Env, sc core.SpawnContext, opts esyncreg.Options) *Node {
	return &Node{env: env, inner: esyncreg.New(env, sc, opts)}
}

// Factory returns a core.NodeFactory for the atomic register.
func Factory(opts esyncreg.Options) core.NodeFactory {
	return func(env core.Env, sc core.SpawnContext) core.Node {
		return New(env, sc, opts)
	}
}

// Compile-time interface checks.
var (
	_ core.Node = (*Node)(nil)
	_ core.Ops  = (*Node)(nil)
)

// keyZeroOnly refuses an operation on any register but the default one:
// the atomic upgrade is exposed for key 0 only (see Deliver).
func keyZeroOnly(reg core.RegisterID) error {
	if reg != core.DefaultRegister {
		return fmt.Errorf("atomicreg: only %v is atomic, not %v", core.DefaultRegister, reg)
	}
	return nil
}

// Start implements core.Node.
func (n *Node) Start() { n.inner.Start() }

// Active implements core.Node.
func (n *Node) Active() bool { return n.inner.Active() }

// Snapshot implements core.Node.
func (n *Node) Snapshot() core.VersionedValue { return n.inner.Snapshot() }

// Write implements core.Ops (unchanged from the regular protocol —
// writes already install their value at a majority), on key 0 only.
func (n *Node) Write(reg core.RegisterID, v core.Value, done func(core.VersionedValue, error)) error {
	if err := keyZeroOnly(reg); err != nil {
		return err
	}
	return n.inner.Write(reg, v, done)
}

// Stats returns write-back counters.
func (n *Node) Stats() Stats { return n.stats }

// Read implements core.Ops with atomic semantics, on key 0 only: quorum
// read, then write the result back to a majority, then return.
func (n *Node) Read(reg core.RegisterID, done func(core.VersionedValue, error)) error {
	if err := keyZeroOnly(reg); err != nil {
		return err
	}
	if n.reading || n.wbActive {
		return core.ErrOpInProgress
	}
	err := n.inner.Read(reg, func(v core.VersionedValue, _ error) {
		n.reading = false
		n.startWriteBack(v, done)
	})
	if err != nil {
		return err
	}
	n.reading = true
	n.stats.Reads++
	return nil
}

// startWriteBack broadcasts the read value and waits for a majority of
// ACKs before reporting the read complete.
func (n *Node) startWriteBack(v core.VersionedValue, done func(core.VersionedValue, error)) {
	n.stats.WriteBacks++
	n.wbActive = true
	n.wbSN = v.SN
	n.wbValue = v
	n.wbAcks.Open(placement.SystemScope(n.env))
	n.wbDone = done
	// An ordinary WRITE: replicas apply it if newer and ACK it in all
	// cases (Figure 6 lines 06-08), which is exactly what a write-back
	// needs. It reuses the writer's sequence number, so the single-writer
	// ordering is untouched.
	n.env.Broadcast(n.out.Write(core.WriteMsg{From: n.env.ID(), Value: v}))
}

func (n *Node) checkWriteBack() {
	if !n.wbActive || !n.wbAcks.Done() {
		return
	}
	n.wbActive = false
	done := n.wbDone
	n.wbDone = nil
	done(n.wbValue, nil)
}

// Deliver implements core.Node: write-back ACKs are consumed here; all
// other traffic flows to the inner regular node. The atomic upgrade is
// exposed for the default register only, so only key-0 ACKs are eligible.
// While a write-back is in flight the inner node is neither reading nor
// writing key 0 (this wrapper's operations are sequential), so a key-0
// ACK matching wbSN can only belong to the write-back.
func (n *Node) Deliver(from core.ProcessID, m core.Message) {
	if ack, ok := m.(*core.AckMsg); ok && ack.Reg == core.DefaultRegister && n.wbActive && ack.SN == n.wbSN {
		n.stats.WriteBackAcked++
		n.wbAcks.Add(from, core.VersionedValue{})
		n.checkWriteBack()
		return
	}
	n.inner.Deliver(from, m)
}
