package placement

import (
	"slices"
	"testing"

	"churnreg/internal/core"
)

func ids(ns ...int64) []core.ProcessID {
	out := make([]core.ProcessID, len(ns))
	for i, n := range ns {
		out[i] = core.ProcessID(n)
	}
	return out
}

// TestBuildDeterministic: the same member set yields the same view,
// whatever order (or duplication) the members arrive in.
func TestBuildDeterministic(t *testing.T) {
	cfg := Config{Shards: 16, Replication: 3}
	a := Build(cfg, ids(1, 2, 3, 4, 5))
	b := Build(cfg, ids(5, 3, 1, 4, 2, 3))
	for s := 0; s < cfg.Shards; s++ {
		ga, gb := a.GroupFor(s), b.GroupFor(s)
		if len(ga) != len(gb) {
			t.Fatalf("shard %d: group sizes differ: %v vs %v", s, ga, gb)
		}
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("shard %d: groups differ: %v vs %v", s, ga, gb)
			}
		}
	}
}

// TestGroupSizeAndMembership: groups have size min(R, |members|), contain
// no duplicates, and IsReplica agrees with GroupFor.
func TestGroupSizeAndMembership(t *testing.T) {
	cfg := Config{Shards: 8, Replication: 3}
	for _, members := range [][]core.ProcessID{ids(1, 2), ids(1, 2, 3, 4, 5, 6)} {
		v := Build(cfg, members)
		want := cfg.Replication
		if want > len(members) {
			want = len(members)
		}
		for s := 0; s < cfg.Shards; s++ {
			g := v.GroupFor(s)
			if len(g) != want {
				t.Fatalf("members=%v shard %d: group size %d, want %d", members, s, len(g), want)
			}
			seen := map[core.ProcessID]bool{}
			for _, id := range g {
				if seen[id] {
					t.Fatalf("shard %d: duplicate member %v in %v", s, id, g)
				}
				seen[id] = true
			}
		}
	}
	v := Build(cfg, ids(1, 2, 3, 4))
	for reg := core.RegisterID(0); reg < 50; reg++ {
		g := v.Group(reg)
		for _, id := range ids(1, 2, 3, 4) {
			if v.IsReplica(reg, id) != slices.Contains(g, id) {
				t.Fatalf("reg %v: IsReplica(%v) disagrees with group %v", reg, id, g)
			}
		}
	}
}

// TestMinimalMovement: adding one member to a 10-member system must not
// reshuffle everything — rendezvous hashing moves only the shards the
// newcomer's score wins, about S·R/(n+1) of the S·R replica slots.
func TestMinimalMovement(t *testing.T) {
	cfg := Config{Shards: 64, Replication: 3}
	before := Build(cfg, ids(1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
	after := Build(cfg, ids(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11))
	moved := 0
	for s := 0; s < cfg.Shards; s++ {
		was := map[core.ProcessID]bool{}
		for _, id := range before.GroupFor(s) {
			was[id] = true
		}
		for _, id := range after.GroupFor(s) {
			if !was[id] && id != 11 {
				moved++ // a survivor slot changed hands: NOT minimal
			}
		}
	}
	if moved != 0 {
		t.Fatalf("%d replica slots moved between surviving members (rendezvous must only hand slots to the newcomer)", moved)
	}
	gainedByNew := after.OwnedCount(11)
	if gainedByNew == 0 {
		t.Fatalf("newcomer owns no shards across %d shards", cfg.Shards)
	}
	if gainedByNew > cfg.Shards {
		t.Fatalf("newcomer owns %d > S shards", gainedByNew)
	}
}

// TestBalance: shard ownership spreads over members (no member owns more
// than ~3x its fair share on this configuration).
func TestBalance(t *testing.T) {
	cfg := Config{Shards: 128, Replication: 3}
	members := ids(1, 2, 3, 4, 5, 6, 7, 8)
	v := Build(cfg, members)
	fair := cfg.Shards * cfg.Replication / len(members)
	for _, id := range members {
		got := v.OwnedCount(id)
		if got == 0 {
			t.Fatalf("member %v owns nothing", id)
		}
		if got > 3*fair {
			t.Fatalf("member %v owns %d shards, fair share %d", id, got, fair)
		}
	}
}

// TestGainedAndDonors: a joiner gains exactly the shards it now
// replicates; donors for a gained shard cover its previous holders.
func TestGainedAndDonors(t *testing.T) {
	cfg := Config{Shards: 32, Replication: 2}
	old := Build(cfg, ids(1, 2, 3))
	now := Build(cfg, ids(1, 2, 3, 4))
	gained := Gained(old, now, 4)
	if len(gained) == 0 {
		t.Fatal("joiner gained nothing over 32 shards")
	}
	for _, s := range gained {
		if !slices.Contains(now.GroupFor(s), 4) {
			t.Fatalf("gained shard %d not owned by 4 in new view", s)
		}
		donors := Donors(old, now, s, 4)
		if len(donors) == 0 {
			t.Fatalf("shard %d: no donors", s)
		}
		oldHolders := old.GroupFor(s)
		found := false
		for _, d := range donors {
			if slices.Contains(oldHolders, d) {
				found = true
			}
			if d == 4 {
				t.Fatalf("shard %d: self listed as donor", s)
			}
		}
		if !found {
			t.Fatalf("shard %d: donors %v cover no old holder %v", s, donors, oldHolders)
		}
	}
	// First view (old == nil): everything owned is "gained".
	first := Gained(nil, now, 1)
	if len(first) != now.OwnedCount(1) {
		t.Fatalf("first-view gained = %d, want owned count %d", len(first), now.OwnedCount(1))
	}
}

// TestShardOfSpread: register ids spread across shards.
func TestShardOfSpread(t *testing.T) {
	counts := make([]int, 8)
	for reg := core.RegisterID(0); reg < 800; reg++ {
		counts[ShardOf(reg, 8)]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d got no keys of 800", s)
		}
	}
}

// TestValidate rejects bad configs; Build returns nil when disabled, and
// an empty sharded view, never nil, over no members.
func TestValidate(t *testing.T) {
	if err := (Config{Shards: -1}).Validate(); err == nil {
		t.Fatal("negative shards accepted")
	}
	if err := (Config{Shards: 4, Replication: 0}).Validate(); err == nil {
		t.Fatal("zero replication accepted")
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("disabled config rejected: %v", err)
	}
	if v := Build(Config{}, ids(1, 2)); v != nil {
		t.Fatal("disabled config built a view")
	}
	if v := Build(Config{Shards: 4, Replication: 2}, nil); v == nil || len(v.Members()) != 0 || v.Route(ids(1), 3, 0) != core.NoProcess {
		t.Fatalf("empty membership built %v; want a sharded view that routes nowhere", v)
	}
}

// TestRoute pins the one routing rule the client and both facades share:
// the i-th member of the key's group, modulo its size, or of the
// ascending members when the view is nil; attempt 0 is the primary.
func TestRoute(t *testing.T) {
	cfg := Config{Shards: 8, Replication: 3}
	v := Build(cfg, ids(1, 2, 3, 4, 5, 6))
	members := ids(2, 5, 9)
	const k = core.RegisterID(11)
	g := v.GroupFor(v.ShardOf(k))
	if len(g) != cfg.Replication {
		t.Fatalf("group %v, want %d members", g, cfg.Replication)
	}
	for _, tc := range []struct {
		name    string
		view    *View
		members []core.ProcessID
		i       int
		want    core.ProcessID
	}{
		{"nil view, attempt 0 is the lowest member", nil, members, 0, 2},
		{"nil view rotates", nil, members, 1, 5},
		{"nil view wraps", nil, members, 4, 5},
		{"nil view, no members", nil, nil, 0, core.NoProcess},
		{"attempt 0 is the primary", v, members, 0, g[0]},
		{"sharded rotates over the group", v, members, 2, g[2]},
		{"sharded wraps modulo the group size", v, members, 3, g[0]},
		{"sharded ignores members", v, nil, 4, g[1]},
	} {
		if got := tc.view.Route(tc.members, k, tc.i); got != tc.want {
			t.Errorf("%s: Route(%v, %v, %d) = %v, want %v", tc.name, tc.members, k, tc.i, got, tc.want)
		}
	}
}
