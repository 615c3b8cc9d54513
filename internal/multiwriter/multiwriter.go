// Package multiwriter answers the paper's §7 question "how to permit any
// process to write at any time" for the synchronous model: a write token
// with heartbeats and deterministic claim resolution, layered over the §3
// register. The register protocol itself already supports many writers as
// long as writes are never concurrent (the paper's footnote 1); this
// package provides that mutual exclusion under churn.
//
// Mechanism (all in the synchronous model, δ known):
//
//   - The token holder broadcasts BEAT every δ. Every process tracks the
//     last beat it heard.
//   - A process wanting the token and hearing no beat for 4δ broadcasts
//     CLAIM(i, now) and waits 2δ. It wins unless it observed a better
//     claim (smaller timestamp, ties by smaller id) or a beat. The winner
//     starts beating immediately.
//   - A holder can Transfer the token point-to-point, or Release it by
//     broadcasting a "free" beat that resets everyone's staleness clock,
//     making the token immediately claimable.
//   - Writes are accepted only while holding the token.
//
// Why at most one holder: two claims with stamps within 2δ of each other
// reach one another within δ (both claimants were present when the other
// broadcast — a claimant must be ACTIVE, and becoming active takes 3δ, so
// a process that entered after a claim was sent cannot itself claim before
// that claim's winner has been beating for over a δ). The claim windows
// therefore always overlap enough for the loser to observe the better bid
// or the winner's first beat.
//
// If the holder leaves, its beats stop; 4δ later the token is claimable —
// the register loses availability for writes during that gap (bounded by
// 4δ + 2δ resolution), never safety.
package multiwriter

import (
	"errors"

	"churnreg/internal/core"
	"churnreg/internal/sim"
	"churnreg/internal/syncreg"
)

// ErrNotHolder is returned by Write when the node lacks the token.
var ErrNotHolder = errors.New("multiwriter: process does not hold the write token")

// neverBeat marks "no beat heard"; any claim-staleness test passes.
const neverBeat = sim.Time(-1 << 40)

// Node layers write-token coordination over the synchronous register
// protocol. Lock messages are consumed here; everything else flows to the
// embedded register node.
type Node struct {
	env core.Env
	reg *syncreg.Node

	holder   bool
	lastBeat sim.Time // most recent valid holder beat heard (neverBeat if none/freed)
	// beatSeq numbers this node's own beats; freeSeq records, per remote
	// process, the Seq of the last free-beat seen, so stale pre-release
	// beats that overtake the release (channels are not FIFO) are dropped.
	beatSeq uint64
	freeSeq map[core.ProcessID]uint64

	claiming   bool
	claimStamp sim.Time
	claimLost  bool
	claimDone  func(won bool)

	// bestClaim remembers the strongest foreign claim heard recently —
	// including claims heard BEFORE this node started its own (a claimant
	// that only compared against claims arriving mid-window would miss an
	// earlier rival and mint a second token).
	bestClaimStamp sim.Time
	bestClaimFrom  core.ProcessID
	bestClaimAt    sim.Time
	haveBestClaim  bool

	stats Stats
}

// Stats counts token activity at this node.
type Stats struct {
	ClaimsWon    uint64
	ClaimsLost   uint64
	BeatsSent    uint64
	Transfers    uint64
	TokenReceipt uint64
}

// New builds a node. Exactly like the underlying register, bootstrap
// nodes start active; no process starts holding the token.
func New(env core.Env, sc core.SpawnContext) *Node {
	return &Node{
		env:      env,
		reg:      syncreg.New(env, sc, syncreg.Options{}),
		lastBeat: neverBeat,
		freeSeq:  make(map[core.ProcessID]uint64),
	}
}

// Factory returns a core.NodeFactory for the multi-writer register.
func Factory() core.NodeFactory {
	return func(env core.Env, sc core.SpawnContext) core.Node {
		return New(env, sc)
	}
}

// Compile-time interface checks.
var (
	_ core.Node             = (*Node)(nil)
	_ core.Ops              = (*Node)(nil)
	_ core.Joiner           = (*Node)(nil)
	_ core.KeyedSnapshotter = (*Node)(nil)
	_ core.OpAccountant     = (*Node)(nil)
)

// Start implements core.Node.
func (n *Node) Start() { n.reg.Start() }

// Active implements core.Node.
func (n *Node) Active() bool { return n.reg.Active() }

// Snapshot implements core.Node.
func (n *Node) Snapshot() core.VersionedValue { return n.reg.Snapshot() }

// OnJoined implements core.Joiner.
func (n *Node) OnJoined(done func()) { n.reg.OnJoined(done) }

// Read implements core.Ops — every key of the namespace reads locally,
// fast and tokenless.
func (n *Node) Read(k core.RegisterID, done func(core.VersionedValue, core.ProcessID, error)) error {
	return n.reg.Read(k, done)
}

// SnapshotKey implements core.KeyedSnapshotter.
func (n *Node) SnapshotKey(k core.RegisterID) core.VersionedValue { return n.reg.SnapshotKey(k) }

// Keys implements core.KeyedSnapshotter.
func (n *Node) Keys() []core.RegisterID { return n.reg.Keys() }

// PendingOps implements core.OpAccountant (the register's op table; token
// claims are not register operations).
func (n *Node) PendingOps() int { return n.reg.PendingOps() }

// Stats returns token counters.
func (n *Node) Stats() Stats { return n.stats }

// Holder reports whether this node currently holds the write token.
func (n *Node) Holder() bool { return n.holder }

// TokenFresh reports whether some holder's beat was heard recently enough
// that a claim would be futile.
func (n *Node) TokenFresh() bool {
	return n.lastBeat != neverBeat && n.env.Now().Sub(n.lastBeat) <= n.staleAfter()
}

func (n *Node) beatEvery() sim.Duration  { return n.env.Delta() }
func (n *Node) staleAfter() sim.Duration { return 4 * n.env.Delta() }

// Acquire bids for the write token. done(true) runs when this node wins;
// done(false) when it observes a better claim or a live holder. Only
// active processes may claim.
func (n *Node) Acquire(done func(won bool)) error {
	if !n.reg.Active() {
		return core.ErrNotActive
	}
	if n.holder {
		if done != nil {
			done(true)
		}
		return nil
	}
	if n.claiming {
		return core.ErrOpInProgress
	}
	if n.TokenFresh() {
		// A live holder exists; fail fast rather than wait out a doomed
		// claim window.
		if done != nil {
			done(false)
		}
		return nil
	}
	n.claiming = true
	n.claimLost = false
	n.claimStamp = n.env.Now()
	n.claimDone = done
	n.env.Broadcast(core.ClaimMsg{From: n.env.ID(), Stamp: int64(n.claimStamp)})
	n.env.After(2*n.env.Delta(), n.resolveClaim)
	return nil
}

func (n *Node) resolveClaim() {
	if !n.claiming {
		return
	}
	n.claiming = false
	done := n.claimDone
	n.claimDone = nil
	if n.claimLost || n.TokenFresh() || n.beatenByRememberedClaim() {
		n.stats.ClaimsLost++
		if done != nil {
			done(false)
		}
		return
	}
	n.becomeHolder()
	if done != nil {
		done(true)
	}
}

// beatenByRememberedClaim reports whether a foreign claim heard recently —
// possibly before this node's own claim began — outranks ours.
func (n *Node) beatenByRememberedClaim() bool {
	if !n.haveBestClaim || n.env.Now().Sub(n.bestClaimAt) > n.staleAfter() {
		return false
	}
	if n.bestClaimStamp != n.claimStamp {
		return n.bestClaimStamp < n.claimStamp
	}
	return n.bestClaimFrom < n.env.ID()
}

func (n *Node) becomeHolder() {
	n.holder = true
	n.stats.ClaimsWon++
	n.beat()
}

// beat broadcasts the holder heartbeat and reschedules itself.
func (n *Node) beat() {
	if !n.holder {
		return
	}
	n.stats.BeatsSent++
	n.beatSeq++
	n.env.Broadcast(core.BeatMsg{From: n.env.ID(), Seq: n.beatSeq})
	n.env.After(n.beatEvery(), n.beat)
}

// Release gives the token up voluntarily, broadcasting a "free" beat so
// the next claimant need not wait out the staleness timeout. The free
// beat's Seq supersedes every beat this holder ever sent, so stragglers
// that overtake it are discarded by recipients.
func (n *Node) Release() {
	if !n.holder {
		return
	}
	n.holder = false
	n.beatSeq++
	n.env.Broadcast(core.BeatMsg{From: n.env.ID(), Free: true, Seq: n.beatSeq})
}

// Transfer hands the token directly to a successor. The caller must hold
// the token and must first drain its own pipeline (PendingOps() == 0):
// a write still in flight at transfer time would race the successor's
// first write for a sequence number — two values under one sn, a
// permanent split — so an undrained Transfer is refused with
// ErrOpInProgress. A completed write's value propagated within δ <
// token transit + claim times, so continuity is preserved for drained
// holders.
func (n *Node) Transfer(to core.ProcessID) error {
	if !n.holder {
		return core.ErrNotActive
	}
	if n.reg.PendingOps() > 0 {
		return core.ErrOpInProgress
	}
	n.holder = false
	n.stats.Transfers++
	n.env.Send(to, core.TokenMsg{From: n.env.ID()})
	return nil
}

// Write implements core.Ops, gated on token ownership. One token guards
// the whole namespace: the holder may write any key (per-key tokens would
// shrink contention further; the coarse token keeps the §7 mechanism
// intact). The holder's writes pipeline exactly like the underlying
// register's — the token excludes OTHER writers, not this node's own
// in-flight ops.
func (n *Node) Write(k core.RegisterID, v core.Value, done func(core.VersionedValue, error)) error {
	if !n.holder {
		return ErrNotHolder
	}
	return n.reg.Write(k, v, done)
}

// WriteBatch implements core.Ops, token-gated like Write.
func (n *Node) WriteBatch(entries []core.KeyedWrite, done func([]core.KeyedValue, error)) error {
	if !n.holder {
		return ErrNotHolder
	}
	return n.reg.WriteBatch(entries, done)
}

// Deliver implements core.Node: token traffic is handled here, the rest
// delegates to the register.
func (n *Node) Deliver(from core.ProcessID, m core.Message) {
	switch msg := m.(type) {
	case core.ClaimMsg:
		n.handleClaim(msg)
	case core.BeatMsg:
		n.handleBeat(msg)
	case core.TokenMsg:
		n.stats.TokenReceipt++
		n.becomeHolder()
	default:
		n.reg.Deliver(from, m)
	}
}

func (n *Node) handleClaim(m core.ClaimMsg) {
	if m.From == n.env.ID() {
		return // own broadcast loopback
	}
	if n.holder {
		// A live holder refutes any claim just by beating; beat now so
		// the claimant learns within δ.
		n.stats.BeatsSent++
		n.beatSeq++
		n.env.Broadcast(core.BeatMsg{From: n.env.ID(), Seq: n.beatSeq})
		return
	}
	theirs := sim.Time(m.Stamp)
	// Remember the strongest recent claim, whether or not we are claiming
	// yet — a later claim of ours must still yield to it.
	expired := n.haveBestClaim && n.env.Now().Sub(n.bestClaimAt) > n.staleAfter()
	if !n.haveBestClaim || expired ||
		theirs < n.bestClaimStamp ||
		(theirs == n.bestClaimStamp && m.From < n.bestClaimFrom) {
		n.haveBestClaim = true
		n.bestClaimStamp = theirs
		n.bestClaimFrom = m.From
		n.bestClaimAt = n.env.Now()
	}
	if n.claiming {
		if theirs < n.claimStamp || (theirs == n.claimStamp && m.From < n.env.ID()) {
			n.claimLost = true
		}
	}
}

func (n *Node) handleBeat(m core.BeatMsg) {
	if m.Free {
		if m.Seq >= n.freeSeq[m.From] {
			n.freeSeq[m.From] = m.Seq
			n.lastBeat = neverBeat
			// The released token also clears remembered contention: the
			// claim that won is done with it.
			n.haveBestClaim = false
		}
		return
	}
	if m.Seq <= n.freeSeq[m.From] {
		return // stale pre-release beat that overtook the free-beat
	}
	n.lastBeat = n.env.Now()
	if n.claiming && m.From != n.env.ID() {
		n.claimLost = true
	}
}
