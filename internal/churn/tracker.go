package churn

import (
	"math"
	"sort"

	"churnreg/internal/core"
	"churnreg/internal/sim"
)

// NeverDeparted marks a process still in the system at the end of a run.
const NeverDeparted sim.Time = math.MaxInt64

// NeverActivated marks a process whose join never completed.
const NeverActivated sim.Time = math.MaxInt64

// Record is the lifecycle of one process.
type Record struct {
	ID        core.ProcessID
	Entered   sim.Time // begin of join (listening mode starts)
	Activated sim.Time // join returned (active mode); NeverActivated if not
	Departed  sim.Time // left the system; NeverDeparted if still present
	Bootstrap bool     // one of the n initial processes (active at time 0)
}

// IsActive reports whether the process completed its join and has not left.
func (r *Record) IsActive() bool {
	return r.Activated != NeverActivated && r.Departed == NeverDeparted
}

// ActiveDuring reports whether the process was active throughout [from, to]
// — the membership test of the paper's A(τ1, τ2).
func (r *Record) ActiveDuring(from, to sim.Time) bool {
	return r.Activated != NeverActivated && r.Activated <= from && r.Departed > to
}

// Tracker records every process lifecycle in a run. It provides the A(τ)
// and A(τ1, τ2) accounting the paper's lemmas are stated in.
type Tracker struct {
	records map[core.ProcessID]*Record
	order   []core.ProcessID // insertion order, for deterministic iteration
	present map[core.ProcessID]*Record
	nextID  core.ProcessID
}

// NewTracker returns an empty tracker. IDs start at 1.
func NewTracker() *Tracker {
	return &Tracker{
		records: make(map[core.ProcessID]*Record),
		present: make(map[core.ProcessID]*Record),
	}
}

// AllocateID returns a fresh never-used identity (infinite arrival model).
func (t *Tracker) AllocateID() core.ProcessID {
	t.nextID++
	return t.nextID
}

// Entered records that id entered the system at now (join begins).
func (t *Tracker) Entered(id core.ProcessID, now sim.Time) {
	r := &Record{ID: id, Entered: now, Activated: NeverActivated, Departed: NeverDeparted}
	t.records[id] = r
	t.order = append(t.order, id)
	t.present[id] = r
}

// Activated records that id's join returned at now.
func (t *Tracker) Activated(id core.ProcessID, now sim.Time) {
	if r, ok := t.records[id]; ok && r.Activated == NeverActivated {
		r.Activated = now
	}
}

// MarkBootstrap flags id as one of the initial processes; its (zero) join
// latency is excluded from JoinLatencies.
func (t *Tracker) MarkBootstrap(id core.ProcessID) {
	if r, ok := t.records[id]; ok {
		r.Bootstrap = true
	}
}

// Departed records that id left the system at now.
func (t *Tracker) Departed(id core.ProcessID, now sim.Time) {
	if r, ok := t.records[id]; ok && r.Departed == NeverDeparted {
		r.Departed = now
		delete(t.present, id)
	}
}

// Record returns the lifecycle record for id (nil if unknown).
func (t *Tracker) Record(id core.ProcessID) *Record {
	return t.records[id]
}

// Records returns all lifecycle records in entry order. The slice is fresh;
// the records it points to are live (do not mutate).
func (t *Tracker) Records() []*Record {
	out := make([]*Record, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.records[id])
	}
	return out
}

// ActiveCount returns |A(now)| for the current instant.
func (t *Tracker) ActiveCount() int {
	n := 0
	for _, r := range t.present {
		if r.IsActive() {
			n++
		}
	}
	return n
}

// ActiveIDs returns the sorted identities of currently active processes.
func (t *Tracker) ActiveIDs() []core.ProcessID {
	ids := make([]core.ProcessID, 0, len(t.present))
	for id, r := range t.present {
		if r.IsActive() {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// presentFiltered returns present records satisfying keep, in entry order.
func (t *Tracker) presentFiltered(keep func(*Record) bool) []*Record {
	out := make([]*Record, 0, len(t.present))
	for _, id := range t.order {
		r, ok := t.present[id]
		if !ok {
			continue
		}
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// ActiveWindow returns |A(τ, τ+w)|: processes active during the whole
// window starting at τ.
func (t *Tracker) ActiveWindow(tau sim.Time, w sim.Duration) int {
	n := 0
	for _, id := range t.order {
		if t.records[id].ActiveDuring(tau, tau.Add(w)) {
			n++
		}
	}
	return n
}

// WindowScan computes min and max over τ ∈ [from, to] of |A(τ, τ+w)| with a
// difference-array sweep: a record covers window τ iff
// τ ∈ [Activated, Departed − w). Runs in O(records + horizon).
func (t *Tracker) WindowScan(from, to sim.Time, w sim.Duration) (minA, maxA int) {
	if to < from {
		return 0, 0
	}
	horizon := int64(to-from) + 1
	diff := make([]int64, horizon+1)
	for _, id := range t.order {
		r := t.records[id]
		if r.Activated == NeverActivated {
			continue
		}
		// Window [τ, τ+w] is covered iff Activated <= τ and Departed > τ+w.
		lo := int64(r.Activated - from)
		var hi int64
		if r.Departed == NeverDeparted {
			hi = horizon - 1
		} else {
			hi = int64(r.Departed-from) - int64(w) - 1
		}
		if lo < 0 {
			lo = 0
		}
		if hi >= horizon {
			hi = horizon - 1
		}
		if lo > hi {
			continue
		}
		diff[lo]++
		diff[hi+1]--
	}
	cur := int64(0)
	minA, maxA = math.MaxInt, 0
	for i := int64(0); i < horizon; i++ {
		cur += diff[i]
		if int(cur) < minA {
			minA = int(cur)
		}
		if int(cur) > maxA {
			maxA = int(cur)
		}
	}
	if minA == math.MaxInt {
		minA = 0
	}
	return minA, maxA
}

// JoinLatencies returns, for every non-bootstrap process that activated,
// the duration from entry to activation. Bootstrap processes are active by
// definition and would skew the distribution with zeros.
func (t *Tracker) JoinLatencies() []sim.Duration {
	var out []sim.Duration
	for _, id := range t.order {
		r := t.records[id]
		if !r.Bootstrap && r.Activated != NeverActivated {
			out = append(out, r.Activated.Sub(r.Entered))
		}
	}
	return out
}

// JoinStats summarizes join outcomes: completed joins, joins still pending
// among present processes, and joins cut short by departure.
func (t *Tracker) JoinStats() (completed, pending, abandoned int) {
	for _, id := range t.order {
		r := t.records[id]
		switch {
		case r.Activated != NeverActivated:
			completed++
		case r.Departed == NeverDeparted:
			pending++
		default:
			abandoned++
		}
	}
	return completed, pending, abandoned
}
