// Package nodeops turns the asynchronous, loop-confined protocol node API
// (core.Ops) into blocking operations with real-time deadlines. It is the
// one implementation of "invoke an operation on a node and wait":
// internal/nettransport, the TCP runtime behind cmd/regserve and the
// public NetCluster, delegates here. It depends only on the Invoke seam,
// not on the transport, so it can be driven by anything that can run a
// closure on a node.
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

// ReadKey runs a read of one register and waits for its result.
func ReadKey(inv Invoke, reg core.RegisterID, timeout time.Duration) (core.VersionedValue, error) {
	r, err := run(inv, timeout, func(o core.Ops, res chan<- result) error {
		return o.Read(reg, func(v core.VersionedValue, _ core.ProcessID, err error) {
			res <- result{v: v, err: err}
		})
	})
	if err != nil {
		return core.Bottom(), err
	}
	return r.v, nil
}

// WriteKey runs a write of one register, waits for it to return ok, and
// reports the exact versioned value it stored — this write's own ⟨v, sn⟩,
// which matters to pipelined callers: with several writes to one key in
// flight, a snapshot taken after completion may reflect a LATER write.
func WriteKey(inv Invoke, reg core.RegisterID, v core.Value, timeout time.Duration) (core.VersionedValue, error) {
	r, err := run(inv, timeout, func(o core.Ops, res chan<- result) error {
		return o.Write(reg, v, func(vv core.VersionedValue, err error) { res <- result{v: vv, err: err} })
	})
	if err != nil {
		return core.Bottom(), err
	}
	return r.v, nil
}

// result is one operation's outcome, as its done callback reports it.
type result struct {
	v   core.VersionedValue
	err error
}

// run invokes op on the node's core.Ops and waits for the result op's
// done callback sends to res, or for timeout. An error op returns (the
// operation was never invoked) and a node without core.Ops are results
// too, so there is one channel to wait on; by the core.Ops contract at
// most one result is ever sent.
func run(inv Invoke, timeout time.Duration, op func(core.Ops, chan<- result) error) (result, error) {
	res := make(chan result, 1)
	if err := inv(func(n core.Node) {
		o, ok := n.(core.Ops)
		if !ok {
			res <- result{err: fmt.Errorf("nodeops: node %T serves no operations", n)}
			return
		}
		if err := op(o, res); err != nil {
			res <- result{err: err}
		}
	}); err != nil {
		return result{}, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-res:
		return r, r.err
	case <-timer.C:
		return result{}, ErrTimeout
	}
}
