// Package workload drives operations against a running dynamic system and
// records them into a spec.History: a single designated writer issuing
// periodic writes (the paper's one-writer discipline, per key), random
// active readers, and optional read probes fired the moment a join
// completes — the access pattern that makes Figure 3a-style staleness
// observable. Every operation addresses core.DefaultRegister.
package workload

import (
	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/sim"
	"churnreg/internal/spec"
)

// Config parameterizes a workload.
type Config struct {
	// WritePeriod is the time between write invocations (0 = no writes).
	WritePeriod sim.Duration
	// ReadPeriod is the time between read rounds (0 = no periodic reads).
	ReadPeriod sim.Duration
	// ReadFanout is how many random active processes read per round.
	ReadFanout int
	// JoinReadProbe issues a read on every process the moment its join
	// completes — the post-join read of Figure 3.
	JoinReadProbe bool
	// FirstValue seeds the written value sequence (values increment).
	FirstValue core.Value
}

// Stats counts workload outcomes.
type Stats struct {
	WriteRounds     uint64
	WriteBusy       uint64 // writer still had an op outstanding
	WriterHandoffs  uint64 // designated writer left; a new one was elected
	ReadRounds      uint64
	ReadBusy        uint64
	JoinProbes      uint64
	NoActiveReaders uint64
}

// Guard lets the churn engine protect the current designated writer before
// the Runner exists: pass (*Guard).Protects as dynsys.Config.Protect, then
// hand the Guard to New.
type Guard struct {
	id core.ProcessID
}

// Protects reports whether id is the protected writer.
func (g *Guard) Protects(id core.ProcessID) bool { return id == g.id }

// set updates the protected process.
func (g *Guard) set(id core.ProcessID) { g.id = id }

// Runner drives the workload. Single-threaded (scheduler-driven).
type Runner struct {
	sys     *dynsys.System
	history *spec.History
	cfg     Config
	guard   *Guard

	writerID core.ProcessID
	nextVal  core.Value
	stats    Stats

	// pending maps a process to its in-flight recorded op, so departures
	// can abandon it.
	pending map[core.ProcessID]*spec.Op
	stopped bool
}

// New wires a runner to a system. guard may be nil (writer unprotected).
// Call Start to begin.
func New(sys *dynsys.System, history *spec.History, guard *Guard, cfg Config) *Runner {
	if cfg.ReadFanout <= 0 {
		cfg.ReadFanout = 1
	}
	return &Runner{
		sys:     sys,
		history: history,
		cfg:     cfg,
		guard:   guard,
		nextVal: cfg.FirstValue,
		pending: make(map[core.ProcessID]*spec.Op),
	}
}

// Stats returns workload counters.
func (r *Runner) Stats() Stats { return r.stats }

// WriterID returns the current designated writer.
func (r *Runner) WriterID() core.ProcessID { return r.writerID }

// Start elects the first writer, installs lifecycle hooks, and schedules
// the periodic rounds.
func (r *Runner) Start() {
	r.electWriter()
	r.sys.OnKill(r.onKill)
	if r.cfg.JoinReadProbe {
		r.sys.OnActivate(func(id core.ProcessID) {
			r.stats.JoinProbes++
			r.readOn(id)
		})
	}
	if r.cfg.WritePeriod > 0 {
		r.sys.Scheduler().After(r.cfg.WritePeriod, r.writeTick)
	}
	if r.cfg.ReadPeriod > 0 {
		r.sys.Scheduler().After(r.cfg.ReadPeriod, r.readTick)
	}
}

// Stop halts future rounds (in-flight operations still complete).
func (r *Runner) Stop() { r.stopped = true }

func (r *Runner) onKill(id core.ProcessID) {
	if op, ok := r.pending[id]; ok {
		r.history.Abandon(op)
		delete(r.pending, id)
	}
	if id == r.writerID {
		r.electWriter()
		r.stats.WriterHandoffs++
	}
}

// electWriter designates a live active process as the writer.
func (r *Runner) electWriter() {
	if id, ok := r.sys.RandomActive(); ok {
		r.writerID = id
	} else {
		r.writerID = core.NoProcess
	}
	if r.guard != nil {
		r.guard.set(r.writerID)
	}
}

func (r *Runner) writeTick() {
	if r.stopped {
		return
	}
	defer r.sys.Scheduler().After(r.cfg.WritePeriod, r.writeTick)
	r.stats.WriteRounds++
	if r.writerID == core.NoProcess || !r.sys.Present(r.writerID) {
		r.electWriter()
		if r.writerID == core.NoProcess {
			return
		}
	}
	if _, busy := r.pending[r.writerID]; busy {
		// The previous write has not returned: issuing now would clobber
		// its pending record, leaving an op neither completed nor
		// abandoned. The runner records one op per process at a time.
		r.stats.WriteBusy++
		return
	}
	v := r.nextVal
	op := r.history.BeginWrite(r.writerID, r.sys.Now())
	id := r.writerID
	r.pending[id] = op
	err := r.sys.Node(id).(core.Ops).Write(core.DefaultRegister, v, func(vv core.VersionedValue, werr error) {
		delete(r.pending, id)
		if werr != nil {
			r.history.Abandon(op)
			return
		}
		r.history.CompleteWrite(op, r.sys.Now(), vv)
	})
	if err != nil {
		// Busy or not active: withdraw the record entirely — the
		// operation was never invoked.
		delete(r.pending, id)
		r.history.Abandon(op)
		r.stats.WriteBusy++
		return
	}
	r.nextVal++
}

func (r *Runner) readTick() {
	if r.stopped {
		return
	}
	defer r.sys.Scheduler().After(r.cfg.ReadPeriod, r.readTick)
	r.stats.ReadRounds++
	for i := 0; i < r.cfg.ReadFanout; i++ {
		id, ok := r.sys.RandomActive(r.writerID)
		if !ok {
			r.stats.NoActiveReaders++
			return
		}
		r.readOn(id)
	}
}

// readOn issues one read on process id, recording it in the history.
// Protocols with local reads complete before Read returns; quorum
// protocols complete via callback.
func (r *Runner) readOn(id core.ProcessID) {
	node := r.sys.Node(id)
	if node == nil {
		return
	}
	if _, busy := r.pending[id]; busy {
		r.stats.ReadBusy++
		return
	}
	op := r.history.BeginRead(id, r.sys.Now())
	r.pending[id] = op
	err := node.(core.Ops).Read(core.DefaultRegister, func(v core.VersionedValue, _ core.ProcessID, rerr error) {
		delete(r.pending, id)
		if rerr != nil {
			r.history.Abandon(op)
			return
		}
		r.history.CompleteRead(op, r.sys.Now(), v)
	})
	if err != nil {
		delete(r.pending, id)
		r.history.Abandon(op)
		r.stats.ReadBusy++
	}
}
