// Package nodeops turns the asynchronous, loop-confined protocol node API
// (core.KeyedReader, core.KeyedWriter, ...) into blocking operations with
// real-time deadlines. It is the one implementation of "invoke an
// operation on a node and wait": internal/nettransport, the TCP runtime
// behind cmd/regserve and the public NetCluster, delegates here. It depends
// only on the Invoke seam, not on the transport, so how reads route to
// local vs. quorum protocols and how batched writes are emulated can be
// driven by anything that can run a closure on a node.
//
// The contract mirrors core.Env's: an Invoke function runs a closure where
// no other handler of the node runs (in nettransport: inside the node's
// monitor, on the caller's own goroutine). Every channel the closures
// send to is buffered, so a node completing an operation after its caller
// timed out never blocks.
//
// Every function here may be called from any number of goroutines at
// once: each call is its own operation with its own completion channel,
// and the protocols pipeline them (one op-table entry per call). A caller
// that times out abandons only its wait; the node-side operation still
// runs to completion and reclaims its table entry.
package nodeops

import (
	"errors"
	"fmt"
	"time"

	"churnreg/internal/core"
)

// ErrTimeout is returned when an operation misses its real-time deadline.
var ErrTimeout = errors.New("nodeops: operation timed out")

// Invoke runs fn serialized with the node's handlers — the only legal way
// to touch a node. fn may or may not have run when Invoke returns, so it
// reports through channels; it must not itself call Invoke. Invoke
// returns an error if the node is gone (left, killed, or the runtime
// closed).
type Invoke func(fn func(core.Node)) error

// ReadKey runs a read of one register and waits for its result, routing to
// the protocol's local or quorum read as available.
func ReadKey(inv Invoke, reg core.RegisterID, timeout time.Duration) (core.VersionedValue, error) {
	v, _, err := ReadKeyServed(inv, reg, timeout)
	return v, err
}

// ReadKeyServed is ReadKey plus the identity of the process that SERVED
// the read: NoProcess for node-local and quorum reads (the node itself;
// the caller knows its id), the answering replica for reads a sharded
// node forwarded (core.ServedReader). History recorders attribute the
// read to the server, not the relay.
func ReadKeyServed(inv Invoke, reg core.RegisterID, timeout time.Duration) (core.VersionedValue, core.ProcessID, error) {
	type served struct {
		v      core.VersionedValue
		server core.ProcessID
	}
	res := make(chan served, 1)
	errc := make(chan error, 1)
	err := inv(func(n core.Node) {
		switch r := n.(type) {
		case core.ServedReader:
			if err := r.ReadKeyServed(reg, func(v core.VersionedValue, server core.ProcessID, err error) {
				if err != nil {
					errc <- err
					return
				}
				res <- served{v: v, server: server}
			}); err != nil {
				errc <- err
			}
		case core.KeyedLocalReader:
			v, err := r.ReadLocalKey(reg)
			if err != nil {
				errc <- err
				return
			}
			res <- served{v: v}
		case core.KeyedReader:
			if err := r.ReadKey(reg, func(v core.VersionedValue) { res <- served{v: v} }); err != nil {
				errc <- err
			}
		case core.LocalReader:
			if reg != core.DefaultRegister {
				errc <- fmt.Errorf("nodeops: node %T cannot read %v", n, reg)
				return
			}
			v, err := r.ReadLocal()
			if err != nil {
				errc <- err
				return
			}
			res <- served{v: v}
		case core.Reader:
			if reg != core.DefaultRegister {
				errc <- fmt.Errorf("nodeops: node %T cannot read %v", n, reg)
				return
			}
			if err := r.Read(func(v core.VersionedValue) { res <- served{v: v} }); err != nil {
				errc <- err
			}
		default:
			errc <- fmt.Errorf("nodeops: node %T cannot read", n)
		}
	})
	if err != nil {
		return core.Bottom(), core.NoProcess, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case s := <-res:
		return s.v, s.server, nil
	case err := <-errc:
		return core.Bottom(), core.NoProcess, err
	case <-timer.C:
		return core.Bottom(), core.NoProcess, ErrTimeout
	}
}

// WriteKey runs a write of one register, waits for it to return ok, and
// reports the exact versioned value it stored. The value matters to
// pipelined callers: with several writes to one key in flight, a snapshot
// taken after completion may reflect a LATER write, so protocols
// implementing core.SNWriter hand back this write's own ⟨v, sn⟩. For
// legacy writers without it the value is ⊥ (sn unknown — such protocols
// predate pipelining and callers fall back to a snapshot).
func WriteKey(inv Invoke, reg core.RegisterID, v core.Value, timeout time.Duration) (core.VersionedValue, error) {
	done := make(chan core.VersionedValue, 1)
	errc := make(chan error, 1)
	err := inv(func(n core.Node) {
		switch w := n.(type) {
		case core.FallibleSNWriter:
			// Sharded nodes: the write may fail after invocation (a
			// forward refused or unacknowledged), so the callback
			// carries the error channel too.
			if err := w.WriteKeySNErr(reg, v, func(vv core.VersionedValue, werr error) {
				if werr != nil {
					errc <- werr
					return
				}
				done <- vv
			}); err != nil {
				errc <- err
			}
		case core.SNWriter:
			if err := w.WriteKeySN(reg, v, func(vv core.VersionedValue) { done <- vv }); err != nil {
				errc <- err
			}
		case core.KeyedWriter:
			if err := w.WriteKey(reg, v, func() { done <- core.Bottom() }); err != nil {
				errc <- err
			}
		case core.Writer:
			if reg != core.DefaultRegister {
				errc <- fmt.Errorf("nodeops: node %T cannot write %v", n, reg)
				return
			}
			if err := w.Write(v, func() { done <- core.Bottom() }); err != nil {
				errc <- err
			}
		default:
			errc <- fmt.Errorf("nodeops: node %T cannot write", n)
		}
	})
	if err != nil {
		return core.Bottom(), err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case vv := <-done:
		return vv, nil
	case err := <-errc:
		return core.Bottom(), err
	case <-timer.C:
		return core.Bottom(), ErrTimeout
	}
}

// WriteBatch stores several keys' values, waits for all of them to
// return ok, and reports the exact ⟨v, sn⟩ stored per entry (in entry
// order; ⊥ values for protocols predating core.SNBatchWriter/SNWriter).
// Protocols implementing a batch interface get the one-broadcast fast
// path; any other keyed writer is driven with one write per entry, all in
// flight concurrently, so the caller-facing semantics are uniform across
// protocols. Entries must be sorted by Reg with no duplicates.
func WriteBatch(inv Invoke, entries []core.KeyedWrite, timeout time.Duration) ([]core.KeyedValue, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("nodeops: empty batch")
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Reg >= entries[i].Reg {
			return nil, fmt.Errorf("nodeops: batch entries not sorted/unique at %v", entries[i].Reg)
		}
	}
	done := make(chan []core.KeyedValue, 1)
	errc := make(chan error, 1)
	err := inv(func(n core.Node) {
		if bw, ok := n.(core.FallibleSNBatchWriter); ok {
			if err := bw.WriteBatchSNErr(entries, func(kvs []core.KeyedValue, werr error) {
				if werr != nil {
					errc <- werr
					return
				}
				done <- kvs
			}); err != nil {
				errc <- err
			}
			return
		}
		if bw, ok := n.(core.SNBatchWriter); ok {
			if err := bw.WriteBatchSN(entries, func(kvs []core.KeyedValue) { done <- kvs }); err != nil {
				errc <- err
			}
			return
		}
		if bw, ok := n.(core.BatchWriter); ok {
			if err := bw.WriteBatch(entries, func() { done <- nil }); err != nil {
				errc <- err
			}
			return
		}
		// Per-entry fallback. out and remaining are only touched by per-key
		// done callbacks, which all run on the node's loop goroutine — no
		// lock needed.
		out := make([]core.KeyedValue, len(entries))
		remaining := len(entries)
		finishOne := func(i int, vv core.VersionedValue) {
			out[i] = core.KeyedValue{Reg: entries[i].Reg, Value: vv}
			remaining--
			if remaining == 0 {
				done <- out
			}
		}
		switch kw := n.(type) {
		case core.SNWriter:
			for i, e := range entries {
				i := i
				if err := kw.WriteKeySN(e.Reg, e.Val, func(vv core.VersionedValue) { finishOne(i, vv) }); err != nil {
					errc <- err
					return
				}
			}
		case core.KeyedWriter:
			for i, e := range entries {
				i := i
				if err := kw.WriteKey(e.Reg, e.Val, func() { finishOne(i, core.Bottom()) }); err != nil {
					errc <- err
					return
				}
			}
		default:
			errc <- fmt.Errorf("nodeops: node %T cannot write batches", n)
		}
	})
	if err != nil {
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case kvs := <-done:
		if kvs == nil {
			// Legacy batch writer: values unknown; report ⊥ per entry.
			kvs = make([]core.KeyedValue, len(entries))
			for i, e := range entries {
				kvs[i] = core.KeyedValue{Reg: e.Reg, Value: core.Bottom()}
			}
		}
		return kvs, nil
	case err := <-errc:
		return nil, err
	case <-timer.C:
		return nil, ErrTimeout
	}
}

// SnapshotKey returns the node's local copy of one register (for checking
// and metrics; not a protocol read).
func SnapshotKey(inv Invoke, reg core.RegisterID, timeout time.Duration) (core.VersionedValue, error) {
	res := make(chan core.VersionedValue, 1)
	if err := inv(func(n core.Node) {
		if s, ok := n.(core.KeyedSnapshotter); ok {
			res <- s.SnapshotKey(reg)
			return
		}
		if reg == core.DefaultRegister {
			res <- n.Snapshot()
			return
		}
		res <- core.Bottom()
	}); err != nil {
		return core.Bottom(), err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case v := <-res:
		return v, nil
	case <-timer.C:
		return core.Bottom(), ErrTimeout
	}
}

// WaitActive blocks until the node's join has returned, polling on its
// loop goroutine every poll interval, or until timeout.
func WaitActive(inv Invoke, poll, timeout time.Duration) error {
	if poll <= 0 {
		poll = time.Millisecond
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		done := make(chan bool, 1)
		if err := inv(func(n core.Node) { done <- n.Active() }); err != nil {
			return err
		}
		select {
		case active := <-done:
			if active {
				return nil
			}
		case <-deadline.C:
			return ErrTimeout
		}
		select {
		case <-ticker.C:
		case <-deadline.C:
			return ErrTimeout
		}
	}
}
