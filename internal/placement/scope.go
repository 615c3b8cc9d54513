package placement

import "churnreg/internal/core"

// Placed is implemented by Envs whose runtime shards the keyspace. A nil
// view means the runtime is (currently) unsharded and protocols fall back
// to full-membership broadcasts and system-size quorums.
type Placed interface {
	Placement() *View
}

// Aware is implemented by nodes that react to placement changes — the
// internal/shard wrapper, which computes which shards this node gained
// and runs the handoff state exchange for them. Runtimes invoke it on the
// node's event loop after every membership change, in the turn in which
// Placed starts returning the view, so wrapper and engines agree on it,
// and in order: no view a runtime hands over is older than the last.
type Aware interface {
	PlacementChanged(view *View)
}

// Of resolves env's current placement view (nil when the runtime is
// unsharded or does not implement Placed).
func Of(env core.Env) *View {
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
func OpScope(env core.Env, reg core.RegisterID) ([]core.ProcessID, int) {
	if v := Of(env); v != nil {
		if g := v.Group(reg); len(g) > 0 {
			return g, len(g)/2 + 1
		}
	}
	return SystemScope(env)
}

// SystemScope is the quorum scope of what the whole membership answers
// (a join's INQUIRY, an unsharded operation): nil, every process counts,
// and a quorum of ⌊n/2⌋+1 over the constant system size, the majority
// the paper assumes is active at every instant.
func SystemScope(env core.Env) ([]core.ProcessID, int) {
	return nil, env.SystemSize()/2 + 1
}

// ScopedBroadcast disseminates a per-register message to reg's replica
// group — point-to-point sends to each member, self included via the
// runtime's loopback, as one group send where the runtime offers it
// (core.GroupSender) — or to the full membership when env is unsharded.
// This is what turns "every node replicates every key" into "R nodes
// replicate each shard": WRITE/READ traffic for a key only ever reaches
// its group.
func ScopedBroadcast(env core.Env, reg core.RegisterID, m core.Message) {
	var g []core.ProcessID
	if v := Of(env); v != nil {
		g = v.Group(reg)
	}
	if len(g) == 0 {
		env.Broadcast(m)
		return
	}
	if gs, ok := env.(core.GroupSender); ok {
		gs.SendGroup(g, m)
		return
	}
	for _, id := range g {
		env.Send(id, m)
	}
}
