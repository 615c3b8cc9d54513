// Package verdict judges a benchmark run's client-observed history with
// the checkers of internal/spec: per-key regularity, the write
// discipline, and — for an engine that claims atomic reads — the absence
// of new/old inversions.
//
// internal/spec compares every read of a key with every write (and, for
// inversions, every other read) of that key, which is quadratic in the
// length of the history; a saturating run puts a few hundred thousand
// operations on one key. So the history of each key is cut into windows
// of consecutive reads, and each window is handed to internal/spec as a
// history of its own that contains exactly the operations the window's
// verdict depends on:
//
//   - the writes that overlap the window, plus the newest write that
//     completed before it, as the window's initial value;
//   - the reads of earlier windows that were still in flight when the
//     window began, plus the newest value any read had returned before it
//     began, which stand for every earlier read in the inversion check.
//
// The windowed verdict flags the same reads as the whole-history check;
// verdict_test.go compares the two on random histories.
package verdict

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/sim"
	"churnreg/internal/spec"
)

// Op is one client-observed operation on one key.
type Op struct {
	Key   int64
	Write bool
	// Call and Ret bound the operation as the client saw it.
	Call, Ret time.Duration
	// Val and SN are the value read, or the value stored and the sequence
	// number it was stored under.
	Val, SN int64
	// Outcome tells how the operation ended.
	Outcome Outcome
}

// Outcome is how an operation ended.
type Outcome int

// The outcomes of an operation.
const (
	// OK: the operation returned a result.
	OK Outcome = iota
	// NotApplied: the operation failed and is known to have had no effect.
	NotApplied
	// Ambiguous: a write that may or may not have been applied. If a read
	// returned its value it stays in the history as a pending write with
	// the sequence number that read saw; otherwise it is left out.
	Ambiguous
)

// window is the number of reads handed to internal/spec at a time.
const window = 512

// client is the process id the history attributes every operation to:
// one client issues them all, so same-key writes that overlap are
// pipelined writes of one process, which the write discipline allows.
const client core.ProcessID = 1

// Check judges ops. initial gives each key's value before the first
// operation. With atomic set, new/old inversions are violations too. The
// error lists up to ten violations; nil means the history is clean.
func Check(ops []Op, initial map[int64]core.VersionedValue, atomic bool) error {
	byKey := make(map[int64][]Op)
	for _, op := range ops {
		if op.Outcome == NotApplied {
			continue
		}
		byKey[op.Key] = append(byKey[op.Key], op)
	}
	keys := make([]int64, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	var problems []problem
	for _, k := range keys {
		problems = append(problems, checkKey(core.RegisterID(k), byKey[k], initial[k], atomic)...)
	}
	if len(problems) == 0 {
		return nil
	}
	const show = 10
	msg := fmt.Sprintf("%d violations", len(problems))
	for i, p := range problems {
		if i == show {
			msg += fmt.Sprintf("\n  ... and %d more", len(problems)-show)
			break
		}
		msg += "\n  " + p.kind + ": " + p.detail
	}
	return errors.New(msg)
}

// problem is one violation found. read is the offending read (the later
// one of an inversion); it is unset for a breach of the write discipline.
type problem struct {
	kind   string
	read   Op
	detail string
}

// The kinds of problem.
const (
	badWrites   = "write discipline"
	notRegular  = "regularity"
	newOldInver = "new/old inversion"
)

// at converts an offset from the start of the run to checker time. The
// checker's virtual initial write ends at time 0, so every real operation
// must start after that.
func at(d time.Duration) sim.Time { return sim.Time(d) + 1 }

func versioned(op Op) core.VersionedValue {
	return core.VersionedValue{Val: core.Value(op.Val), SN: core.SeqNum(op.SN)}
}

// checkKey judges one key's operations.
func checkKey(reg core.RegisterID, ops []Op, initial core.VersionedValue, atomic bool) []problem {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Call < ops[j].Call })
	var reads, writes []Op
	for _, op := range ops {
		if op.Write {
			writes = append(writes, op)
		} else {
			reads = append(reads, op)
		}
	}
	writes = resolveAmbiguous(writes, reads)

	var problems []problem
	// The write discipline is linear in the history, so it is checked on
	// the whole key at once.
	all := spec.NewHistory(core.VersionedValue{})
	all.SetInitialKey(reg, initial)
	for _, w := range writes {
		record(all, reg, w)
	}
	if err := all.ValidateWrites(); err != nil {
		problems = append(problems, problem{kind: badWrites, detail: err.Error()})
	}

	var (
		nextWrite  int                   // writes[nextWrite:] have not started before any window so far
		liveWrites []Op                  // started, and not known to have completed before the window
		carry      = initial             // newest value whose write completed before the window
		liveReads  []Op                  // reads of earlier windows still in flight when the window begins
		newestRead = Op{Ret: -1, SN: -1} // newest value a read had returned before the window
	)
	for lo := 0; lo < len(reads); lo += window {
		own := reads[lo:min(lo+window, len(reads))]
		begin := own[0].Call
		var end time.Duration
		for _, r := range own {
			end = max(end, r.Ret)
		}

		for nextWrite < len(writes) && writes[nextWrite].Call <= end {
			liveWrites = append(liveWrites, writes[nextWrite])
			nextWrite++
		}
		kept := liveWrites[:0]
		for _, w := range liveWrites {
			if w.Outcome == OK && w.Ret < begin {
				if core.SeqNum(w.SN) > carry.SN {
					carry = versioned(w)
				}
				continue
			}
			kept = append(kept, w)
		}
		liveWrites = kept

		keptReads := liveReads[:0]
		for _, r := range liveReads {
			if r.Ret < begin {
				if r.SN > newestRead.SN {
					newestRead = r
				}
				continue
			}
			keptReads = append(keptReads, r)
		}
		liveReads = keptReads

		h := spec.NewHistory(core.VersionedValue{})
		h.SetInitialKey(reg, carry)
		for _, w := range liveWrites {
			record(h, reg, w)
		}
		if newestRead.Ret >= 0 {
			record(h, reg, newestRead)
		}
		for _, r := range liveReads {
			record(h, reg, r)
		}
		mine := make(map[*spec.Op]Op, len(own))
		for _, r := range own {
			mine[record(h, reg, r)] = r
		}
		// Only the window's own reads are judged: the earlier reads are
		// there as context and lack the writes their own verdict needs.
		for _, v := range h.CheckRegular() {
			if r, ok := mine[v.Read]; ok {
				problems = append(problems, problem{notRegular, r, v.String()})
			}
		}
		if atomic {
			for _, iv := range h.FindInversions() {
				if r, ok := mine[iv.Second]; ok {
					problems = append(problems, problem{newOldInver, r, iv.String()})
				}
			}
		}
		liveReads = append(liveReads, own...)
	}
	return problems
}

// record adds op to h and returns its entry.
func record(h *spec.History, reg core.RegisterID, op Op) *spec.Op {
	if !op.Write {
		e := h.BeginReadKey(client, reg, at(op.Call))
		h.CompleteRead(e, at(op.Ret), versioned(op))
		return e
	}
	e := h.BeginWriteKey(client, reg, at(op.Call))
	if op.Outcome == OK {
		h.CompleteWrite(e, at(op.Ret), versioned(op))
	} else {
		h.ResolveValue(e, versioned(op))
	}
	return e
}

// resolveAmbiguous gives every ambiguous write the sequence number under
// which a read returned its value, and drops the ones whose value no read
// returned: no read needs them allowed. Values are unique per write, so
// the value identifies the write.
func resolveAmbiguous(writes, reads []Op) []Op {
	kept := writes[:0]
	for _, w := range writes {
		if w.Outcome == Ambiguous {
			seen := false
			for _, r := range reads {
				if r.Val == w.Val {
					w.SN, seen = r.SN, true
					break
				}
			}
			if !seen {
				continue
			}
		}
		kept = append(kept, w)
	}
	return kept
}
