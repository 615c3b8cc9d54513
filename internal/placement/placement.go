// Package placement is the deterministic keyspace→replica mapping behind
// sharding: RegisterID → shard → replica group of size R over the current
// membership, via consistent hashing in its rendezvous (highest-random-
// weight) form. Every node computes the same View from the same member
// set with no coordination, and a membership change moves only the shards
// whose top-R scoring changed — the minimal-movement property that keeps
// handoff traffic proportional to churn, not to the keyspace.
//
// The View is immutable: runtimes build a fresh one per membership change
// and swap it in, so protocol code can snapshot a consistent mapping per
// operation. The members are the ACTIVE processes, whose join returned
// (the TCP transport gossips activity): a joiner, or a StaticABD
// replacement, is no key's replica. Eventual agreement on activity
// yields eventual agreement on placement, and the internal/shard handoff
// machinery covers the disagreement window.
//
// A runtime hands its current view to the protocols through their Env
// (Placed) and to the node wrapper (Aware). The engines stay
// placement-correct through three helpers, OpScope, InScope and
// ScopedBroadcast, which fall back to the whole membership when the Env
// carries no view.
package placement

import (
	"fmt"
	"slices"
	"sort"

	"churnreg/internal/core"
)

// Config enables sharding when Shards > 0.
type Config struct {
	// Shards is S, the fixed number of shards the keyspace hashes onto.
	// 0 disables sharding (every node replicates every key).
	Shards int
	// Replication is R, the replica group size per shard (capped by the
	// member count while the system is smaller than R).
	Replication int
}

// Enabled reports whether the config turns sharding on.
func (c Config) Enabled() bool { return c.Shards > 0 }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Shards < 0 {
		return fmt.Errorf("placement: shards = %d, want >= 0", c.Shards)
	}
	if c.Shards > 0 && c.Replication < 1 {
		return fmt.Errorf("placement: replication = %d, want >= 1 when sharded", c.Replication)
	}
	return nil
}

// mix64 is the splitmix64 finalizer — a cheap, well-distributed 64-bit
// mixer; placement only needs determinism and spread, not cryptography.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardOf maps a register to its shard in [0, shards): the key hashes
// through mix64 so adjacent RegisterIDs land on unrelated shards.
func ShardOf(reg core.RegisterID, shards int) int {
	return int(mix64(uint64(reg)) % uint64(shards))
}

// score is one (member, shard) rendezvous weight: the member with the
// highest score owns the shard as primary, the next R-1 are its replicas.
func score(shard int, id core.ProcessID) uint64 {
	return mix64(mix64(uint64(shard)+0x9e3779b97f4a7c15) ^ mix64(uint64(id)))
}

// View is one consistent snapshot of the keyspace→replica mapping:
// RegisterID → shard → replica group of size ≤ R over one member set.
// Views are immutable; the runtime swaps in a fresh view on every
// membership change. A nil *View means the runtime is unsharded.
type View struct {
	cfg     Config
	members []core.ProcessID       // ascending
	groups  [][]core.ProcessID     // per shard, priority order (primary first)
	owned   map[core.ProcessID]int // shards owned per member (for gauges)
	version uint64
}

// Build computes the placement of every shard over members. The member
// slice is copied and sorted; duplicate ids are tolerated (deduped).
// Returns nil when the config disables sharding — callers treat a nil
// view as "unsharded"; no members make an empty view, never nil.
func Build(cfg Config, members []core.ProcessID) *View {
	if !cfg.Enabled() {
		return nil
	}
	ms := append([]core.ProcessID(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	dedup := ms[:0]
	for i, id := range ms {
		if i == 0 || id != ms[i-1] {
			dedup = append(dedup, id)
		}
	}
	ms = dedup
	v := &View{
		cfg:     cfg,
		members: ms,
		groups:  make([][]core.ProcessID, cfg.Shards),
		owned:   make(map[core.ProcessID]int, len(ms)),
	}
	r := cfg.Replication
	if r > len(ms) {
		r = len(ms)
	}
	type scored struct {
		id core.ProcessID
		w  uint64
	}
	ranked := make([]scored, len(ms))
	for s := 0; s < cfg.Shards; s++ {
		for i, id := range ms {
			ranked[i] = scored{id: id, w: score(s, id)}
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].w != ranked[j].w {
				return ranked[i].w > ranked[j].w
			}
			return ranked[i].id < ranked[j].id
		})
		g := make([]core.ProcessID, r)
		for i := 0; i < r; i++ {
			g[i] = ranked[i].id
			v.owned[ranked[i].id]++
		}
		v.groups[s] = g
	}
	return v
}

// SetVersion stamps the view with a runtime-monotone sequence number,
// letting a concurrent runtime, whose view refreshes may reach the node's
// loop out of order, adopt only a view newer than the one it holds. Call
// before publishing the view; 0 means unversioned.
func (v *View) SetVersion(ver uint64) { v.version = ver }

// ViewVersion returns the stamp set by SetVersion.
func (v *View) ViewVersion() uint64 { return v.version }

// NumShards returns S, the fixed shard count.
func (v *View) NumShards() int { return v.cfg.Shards }

// Replication returns the configured R (groups are smaller only while
// the membership is).
func (v *View) Replication() int { return v.cfg.Replication }

// ShardOf maps a register to its shard in [0, S).
func (v *View) ShardOf(reg core.RegisterID) int { return ShardOf(reg, v.cfg.Shards) }

// GroupFor returns one shard's replica group in priority order, the
// primary first. Callers must not mutate the slice.
func (v *View) GroupFor(shard int) []core.ProcessID { return v.groups[shard] }

// Group returns reg's replica group (GroupFor of its shard).
func (v *View) Group(reg core.RegisterID) []core.ProcessID {
	return v.groups[v.ShardOf(reg)]
}

// IsReplica reports whether id is in reg's replica group.
func (v *View) IsReplica(reg core.RegisterID, id core.ProcessID) bool {
	return slices.Contains(v.Group(reg), id)
}

// Members returns every process the view was built over, ascending.
func (v *View) Members() []core.ProcessID { return v.members }

// Route is the routing rule of every facade and the client: the i-th
// member, modulo their number, of reg's replica group, or of members
// (ascending) when v is nil — the system is unsharded and any member
// serves any key. Attempt 0 is
// where reg's writes enter: the shard primary, or the lowest member id,
// because one process mints a key's sequence numbers. Reads rotate i, so
// retries spread over the replicas and a dead one does not blackhole the
// key. NoProcess when there is no member to route to.
func (v *View) Route(members []core.ProcessID, reg core.RegisterID, i int) core.ProcessID {
	if v != nil {
		members = v.Group(reg)
	}
	if len(members) == 0 {
		return core.NoProcess
	}
	return members[i%len(members)]
}

// OwnedCount returns how many shards id replicates under this view.
func (v *View) OwnedCount(id core.ProcessID) int { return v.owned[id] }

// OwnedShards returns the shards id replicates, ascending.
func (v *View) OwnedShards(id core.ProcessID) []int {
	var out []int
	for s, g := range v.groups {
		if slices.Contains(g, id) {
			out = append(out, s)
		}
	}
	return out
}

// Gained returns the shards id replicates under v but did not under old
// (all of id's shards when old is nil): the handoff work list a view
// change gives id. It is the tests' oracle for that list;
// internal/shard's PlacementChanged does not call it, and compares the
// new view's groups with the shards the node already holds instead.
func Gained(old, v *View, id core.ProcessID) []int {
	if v == nil {
		return nil
	}
	var out []int
	for s := 0; s < v.NumShards(); s++ {
		if !slices.Contains(v.GroupFor(s), id) {
			continue
		}
		if old == nil || !slices.Contains(old.GroupFor(s), id) {
			out = append(out, s)
		}
	}
	return out
}

// Donors returns the processes able to seed shard s's state for a node
// that just gained it: the union of the shard's old and new replica
// groups, intersected with the new view's membership, excluding self.
// Ascending, deduped. This is the production donor set the
// internal/shard handoff uses.
func Donors(old, v *View, shard int, self core.ProcessID) []core.ProcessID {
	members := v.Members()
	present := make(map[core.ProcessID]bool, len(members))
	for _, id := range members {
		present[id] = true
	}
	seen := make(map[core.ProcessID]bool)
	var out []core.ProcessID
	add := func(ids []core.ProcessID) {
		for _, id := range ids {
			if id != self && present[id] && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	add(v.GroupFor(shard))
	if old != nil && shard < old.NumShards() {
		add(old.GroupFor(shard))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
