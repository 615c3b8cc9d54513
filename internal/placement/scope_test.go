package placement_test

import (
	"slices"
	"testing"

	"churnreg/internal/core"
	"churnreg/internal/placement"
	"churnreg/internal/sim"
)

// placedEnv is the Env of process 1 in a sharded system: it carries a
// placement view and does nothing else.
type placedEnv struct{ view *placement.View }

func (e *placedEnv) ID() core.ProcessID                { return 1 }
func (e *placedEnv) Now() sim.Time                     { return 0 }
func (e *placedEnv) Send(core.ProcessID, core.Message) {}
func (e *placedEnv) Broadcast(core.Message)            {}
func (e *placedEnv) After(sim.Duration, func())        {}
func (e *placedEnv) Delta() sim.Duration               { return 5 }
func (e *placedEnv) SystemSize() int                   { return 6 }
func (e *placedEnv) MarkActive()                       {}
func (e *placedEnv) Placement() *placement.View        { return e.view }

// TestOpScopeAllocs pins the cost of resolving a sharded quorum
// operation's scope at zero allocations: the scope is the view's own
// group slice, which views never mutate, not a copy of it.
func TestOpScopeAllocs(t *testing.T) {
	view := placement.Build(placement.Config{Shards: 8, Replication: 3}, []core.ProcessID{1, 2, 3, 4, 5, 6})
	env := &placedEnv{view: view}
	const reg = 4
	scope, quorum := placement.OpScope(env, reg)
	if !slices.Equal(scope, view.Group(reg)) || quorum != 2 {
		t.Fatalf("OpScope = %v, %d; want the group %v and a quorum of 2", scope, quorum, view.Group(reg))
	}
	var r placement.Round
	r.Open(scope, quorum)
	for _, id := range view.Members() {
		if got, want := r.Add(id, core.VersionedValue{}), view.IsReplica(reg, id); got != want {
			t.Fatalf("Add(%v) = %v, want %v", id, got, want)
		}
	}
	if got := testing.AllocsPerRun(1000, func() { scope, quorum = placement.OpScope(env, reg) }); got != 0 {
		t.Fatalf("OpScope allocates %v times per call, want 0", got)
	}
}
