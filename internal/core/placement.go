package core

import (
	"errors"
	"slices"
)

// ErrUnroutable is the sharding error, surfaced by the placement-aware
// node wrapper (internal/shard): the operation reached a node that may
// not serve it (a write invoked away from its key's primary),
// or no replica of the key's shard is reachable (the view is empty, or
// every relay attempt of a read was refused). The operation was NOT
// applied.
var ErrUnroutable = errors.New("register: no reachable replica for key's shard")

// handoffBit marks a shard handoff's request tag. Operation tables count
// up from 1, so no operation's id ever has the top bit set.
const handoffBit OpID = 1 << 63

// HandoffOp is the request tag of a shard handoff inquiry (see
// internal/shard): a node that GAINED shard s under a new placement view
// asks the shard's previous/current replicas for a snapshot before
// serving it, and the donor's REPLY echoes the tag.
func HandoffOp(s int) OpID { return handoffBit | OpID(s) }

// HandoffShard reports the shard a handoff tag names, and whether op is
// a handoff tag at all.
func HandoffShard(op OpID) (int, bool) {
	return int(op &^ handoffBit), op&handoffBit != 0
}

// PlacementView is one consistent snapshot of the keyspace→replica
// mapping: RegisterID → shard → replica group of size ≤ R over the
// current membership. Views are immutable; the runtime swaps in a fresh
// view on every membership change. internal/placement provides the one
// implementation (consistent hashing via rendezvous scores).
type PlacementView interface {
	// NumShards returns S, the fixed shard count.
	NumShards() int
	// ShardOf maps a register to its shard in [0, S).
	ShardOf(reg RegisterID) int
	// GroupFor returns one shard's replica group in priority order — the
	// primary first. Callers must not mutate the slice.
	GroupFor(shard int) []ProcessID
	// Group returns reg's replica group (GroupFor of its shard).
	Group(reg RegisterID) []ProcessID
	// IsReplica reports whether id is in reg's replica group.
	IsReplica(reg RegisterID, id ProcessID) bool
	// Members returns every process the view was built over, ascending.
	Members() []ProcessID
}

// Placed is implemented by Envs whose runtime shards the keyspace. A nil
// view means the runtime is (currently) unsharded and protocols fall back
// to full-membership broadcasts and system-size quorums.
type Placed interface {
	Placement() PlacementView
}

// PlacementAware is implemented by nodes that react to placement changes
// — the internal/shard wrapper, which computes which shards this node
// gained and runs the handoff state exchange for them. Runtimes invoke it
// on the node's event loop after every membership change.
type PlacementAware interface {
	PlacementChanged(view PlacementView)
}

// PlacementOf resolves env's current placement view (nil when the
// runtime is unsharded or does not implement Placed).
func PlacementOf(env Env) PlacementView {
	if p, ok := env.(Placed); ok {
		return p.Placement()
	}
	return nil
}

// OpScope resolves the quorum scope of one operation on reg at
// invocation time: the processes whose replies/acks may count (nil =
// everyone) and the quorum size. Unsharded, that is the paper's
// ⌊n/2⌋+1 over the constant system size; sharded, it is a majority of
// the key's replica group — the per-shard quorum whose pairwise
// intersection preserves the Imbs/Mostéfaoui/Perrin/Raynal argument
// register by register. The scope is the invocation view's group slice:
// views are immutable, so holding it pins the scope for the whole
// operation, and a view change mid-operation cannot make an
// already-counted quorum retroactively inconsistent.
func OpScope(env Env, reg RegisterID) ([]ProcessID, int) {
	v := PlacementOf(env)
	if v == nil {
		return nil, env.SystemSize()/2 + 1
	}
	g := v.Group(reg)
	if len(g) == 0 {
		return nil, env.SystemSize()/2 + 1
	}
	return g, len(g)/2 + 1
}

// InScope reports whether a reply/ack from id may count toward a quorum
// with the given scope (nil scope = unsharded, everyone counts).
func InScope(scope []ProcessID, id ProcessID) bool {
	return scope == nil || slices.Contains(scope, id)
}

// GroupSender is implemented by runtimes that can send one message to
// several processes for less than that many Sends (a transport that
// encodes the message once for the whole group). SendGroup(to, m) means
// exactly Send(id, m) for each id of to, in order; to is not retained.
type GroupSender interface {
	SendGroup(to []ProcessID, m Message)
}

// ScopedBroadcast disseminates a per-register message to reg's replica
// group — point-to-point sends to each member, self included via the
// runtime's loopback, as one group send where the runtime offers it — or
// to the full membership when env is unsharded.
// This is what turns "every node replicates every key" into "R nodes
// replicate each shard": WRITE/READ traffic for a key only ever reaches
// its group.
func ScopedBroadcast(env Env, reg RegisterID, m Message) {
	v := PlacementOf(env)
	if v == nil {
		env.Broadcast(m)
		return
	}
	g := v.Group(reg)
	if len(g) == 0 {
		env.Broadcast(m)
		return
	}
	if gs, ok := env.(GroupSender); ok {
		gs.SendGroup(g, m)
		return
	}
	for _, id := range g {
		env.Send(id, m)
	}
}
