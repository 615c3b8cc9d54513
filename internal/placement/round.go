package placement

import (
	"slices"

	"churnreg/internal/core"
)

// Round is one quorum round's tally, the only one the engines use: the
// scope whose answers may count, the quorum they must reach, and at most
// one answer per process. Scoped (sharded), the answers are positional
// over the scope, the invocation view's group slice: answer i is
// scope[i]'s. Unscoped, they are kept in arrival order. Eight answers fit
// inline, and a round that outgrew them keeps its larger array when
// reopened. An open Round refers to its own storage: do not copy it.
type Round struct {
	scope  []core.ProcessID
	quorum int
	got    []answer
	n      int
	inline [8]answer
}

// answer is one process's answer in a round (ok is false for a scope
// member that has not answered).
type answer struct {
	from core.ProcessID
	val  core.VersionedValue
	ok   bool
}

// Open empties the round for answers from scope (nil: every process)
// until quorum of them arrived, as OpScope and SystemScope return them.
func (r *Round) Open(scope []core.ProcessID, quorum int) {
	r.scope, r.quorum, r.n = scope, quorum, 0
	if cap(r.got) > len(r.inline) {
		r.got = r.got[:0]
	} else {
		r.got = r.inline[:0]
	}
	for range scope {
		r.got = append(r.got, answer{})
	}
}

// Reopen empties the round for a new phase over the same scope and
// quorum.
func (r *Round) Reopen() { r.Open(r.scope, r.quorum) }

// Add records from's answer v, keeping the more recent when from answers
// twice, and reports false, counting nothing, for a process outside the
// round's scope.
func (r *Round) Add(from core.ProcessID, v core.VersionedValue) bool {
	i := -1
	if r.scope != nil {
		if i = slices.Index(r.scope, from); i < 0 {
			return false
		}
	} else {
		for j := range r.got {
			if r.got[j].from == from {
				i = j
				break
			}
		}
		if i < 0 {
			i = len(r.got)
			r.got = append(r.got, answer{})
		}
	}
	switch a := &r.got[i]; {
	case !a.ok:
		*a = answer{from: from, val: v, ok: true}
		r.n++
	case v.MoreRecent(a.val):
		a.val = v
	}
	return true
}

// Done reports whether a quorum of distinct processes answered.
func (r *Round) Done() bool { return r.n >= r.quorum }

// Values yields the answers' values, in scope order or arrival order.
func (r *Round) Values(yield func(core.VersionedValue) bool) {
	for _, a := range r.got {
		if a.ok && !yield(a.val) {
			return
		}
	}
}
