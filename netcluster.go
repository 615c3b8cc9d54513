package churnreg

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/nettransport"
	"churnreg/internal/placement"
	"churnreg/internal/sim"
)

// NetCluster is the real-time runtime: it runs the chosen protocol over
// REAL TCP sockets. Every process owns a listener on 127.0.0.1, dials its
// peers, and speaks the internal/wire binary codec — the same transport
// cmd/regserve deploys across machines, here packaged as an in-process
// cluster for library callers, tests and examples. Protocol state
// machines are identical across SimCluster and NetCluster.
//
// Unlike SimCluster there is no churn engine — the caller drives
// membership with Join, Leave (graceful) and Kill (a crash); see
// examples/socialprofile for a churn loop — and no built-in history
// checking (real-time response instants are not exact enough to
// adjudicate boundary cases). The synchronous protocol's δ budget must
// cover genuine TCP round-trips plus scheduler slop — keep Delta×Tick at
// tens of milliseconds.
//
// NetCluster is safe for concurrent use, and concurrency is the point:
// any number of goroutines may issue reads and writes at once; every call
// pipelines as its own operation on its node, across keys and on one key.
// One key's writes must enter at one node, which orders its own pipelined
// writes by invocation: WriteKey and WriteBatch send them to
// placement.View.Route's attempt 0 — the key's shard primary when sharded
// (a write anywhere else is refused), else the lowest present id.
type NetCluster struct {
	opts   options
	mu     sync.Mutex
	nodes  map[ProcessID]*nettransport.Transport
	nextID ProcessID
}

// NewNetCluster builds and starts a TCP-backed cluster of n processes on
// loopback ephemeral ports.
func NewNetCluster(opt ...Option) (*NetCluster, error) {
	o := defaults()
	for _, f := range opt {
		f(&o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	c := &NetCluster{opts: o, nodes: make(map[ProcessID]*nettransport.Transport)}
	trs := make([]*nettransport.Transport, 0, o.n)
	addrs := make([]string, 0, o.n)
	for i := 0; i < o.n; i++ {
		id := ProcessID(i + 1)
		tr, err := nettransport.New(c.transportConfig(id, core.SpawnContext{
			Bootstrap: true,
			Initial:   core.VersionedValue{Val: core.Value(o.initial), SN: 0},
		}))
		if err != nil {
			for _, prev := range trs {
				prev.Close()
			}
			return nil, err
		}
		trs = append(trs, tr)
		addrs = append(addrs, tr.Addr())
		c.nodes[id] = tr
	}
	for i, tr := range trs {
		seeds := make([]string, 0, o.n-1)
		for j, a := range addrs {
			if j != i {
				seeds = append(seeds, a)
			}
		}
		tr.Start(seeds)
	}
	c.nextID = ProcessID(o.n)
	if err := c.awaitViews(trs); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// awaitViews waits, within opTimeout, until every process routes over
// all n bootstrap processes: sharded, its transport has published a view
// of n members (in the turn its node adopted it); unsharded, it knows n-1
// peers. Start publishes views from a goroutine after the handshakes, so
// without this wait the first operations would route on a partial
// system.
func (c *NetCluster) awaitViews(trs []*nettransport.Transport) error {
	deadline := time.Now().Add(c.opts.opTimeout)
	for _, tr := range trs {
		for !c.routesOverAll(tr) {
			if time.Now().After(deadline) {
				return fmt.Errorf("churnreg: process %v has no view over all %d processes after %v", tr.ID(), c.opts.n, c.opts.opTimeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// routesOverAll reports whether tr routes over all n bootstrap processes.
func (c *NetCluster) routesOverAll(tr *nettransport.Transport) bool {
	if !c.opts.placement.Enabled() {
		return tr.PeerCount() == c.opts.n-1
	}
	v := tr.Placement()
	return v != nil && len(v.Members()) == c.opts.n
}

func (c *NetCluster) transportConfig(id ProcessID, sc core.SpawnContext) nettransport.Config {
	return nettransport.Config{
		ID:         id,
		ListenAddr: "127.0.0.1:0",
		N:          c.opts.n,
		Delta:      sim.Duration(c.opts.delta),
		Tick:       c.opts.tick,
		Factory:    c.opts.factory(),
		Bootstrap:  sc.Bootstrap,
		Initial:    sc.Initial,
		Placement:  c.opts.placement,
	}
}

// Close shuts every process down and waits for their goroutines.
func (c *NetCluster) Close() {
	c.mu.Lock()
	trs := make([]*nettransport.Transport, 0, len(c.nodes))
	for id, tr := range c.nodes {
		trs = append(trs, tr)
		delete(c.nodes, id)
	}
	c.mu.Unlock()
	for _, tr := range trs {
		tr.Close()
	}
}

// Size returns the number of present processes.
func (c *NetCluster) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// IDs returns the present processes' identities, ascending.
func (c *NetCluster) IDs() []ProcessID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ProcessID, 0, len(c.nodes))
	for id := range c.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Join adds a fresh process: it dials the present membership as seeds,
// runs the paper's join protocol over TCP, and blocks until the join
// returns. StaticABD has no join: Join returns once the passive replica
// has started.
func (c *NetCluster) Join() (ProcessID, error) {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	seeds := make([]string, 0, len(c.nodes))
	for _, tr := range c.nodes {
		seeds = append(seeds, tr.Addr())
	}
	c.mu.Unlock()
	if len(seeds) == 0 {
		return NoProcess, ErrNoActiveProcess
	}
	tr, err := nettransport.New(c.transportConfig(id, core.SpawnContext{}))
	if err != nil {
		return NoProcess, err
	}
	c.mu.Lock()
	c.nodes[id] = tr
	c.mu.Unlock()
	tr.Start(seeds)
	if !c.opts.protocol.joins() {
		return id, nil
	}
	if err := tr.WaitActive(c.opts.opTimeout); err != nil {
		c.mu.Lock()
		delete(c.nodes, id)
		c.mu.Unlock()
		tr.Close()
		return id, fmt.Errorf("churnreg: net join %v: %w", id, err)
	}
	return id, nil
}

// NoProcess is the zero ProcessID (re-exported for callers).
const NoProcess = core.NoProcess

// Leave removes the process gracefully: peers learn of the departure and
// stop dialing it.
func (c *NetCluster) Leave(id ProcessID) error {
	return c.remove(id, (*nettransport.Transport).Leave)
}

// Kill removes the process abruptly (no LEAVE frame), as a crash would.
func (c *NetCluster) Kill(id ProcessID) error {
	return c.remove(id, (*nettransport.Transport).Close)
}

// remove stops the process, then forgets it. Unsharded, the writer is
// forgotten only 5δ after it stopped. Its successor must hold the last
// value it wrote before minting a sequence number, or it would reuse one
// (two values under one sn — a permanent split); that write returned at
// most δ after its broadcast, so in a timing-honest run it reaches
// everyone within δ of the departure, and several δ absorb scheduler
// slop. Meanwhile routing still picks the stopped writer, whose writes
// are refused before invocation and routed again (see write), so no
// write enters the successor early, concurrent writers included.
func (c *NetCluster) remove(id ProcessID, stop func(*nettransport.Transport)) error {
	tr, err := c.get(id)
	if err != nil {
		return err
	}
	writer := !c.opts.placement.Enabled() && id == c.WriterID()
	stop(tr)
	if writer {
		time.Sleep(5 * time.Duration(c.opts.delta) * c.opts.tick)
	}
	c.mu.Lock()
	delete(c.nodes, id)
	c.mu.Unlock()
	return nil
}

func (c *NetCluster) get(id ProcessID) (*nettransport.Transport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tr, ok := c.nodes[id]
	if !ok {
		return nil, ErrNoActiveProcess
	}
	return tr, nil
}

// WriterID returns the process register 0's writes enter at (see write).
func (c *NetCluster) WriterID() ProcessID {
	ids := c.IDs()
	return c.view(ids).Route(ids, core.DefaultRegister, 0)
}

// view returns the placement of the lowest of ids, the present
// processes, as write and ReadKey route by it: nil when unsharded.
func (c *NetCluster) view(ids []ProcessID) *placement.View {
	if len(ids) == 0 {
		return nil
	}
	tr, err := c.get(ids[0])
	if err != nil {
		return nil
	}
	return tr.Placement()
}

// Write stores v in register 0 (see WriteKey).
func (c *NetCluster) Write(v int64) error { return c.WriteKey(core.DefaultRegister, v) }

// WriteKey stores v in one register at the process that mints its
// sequence numbers (see write). Concurrent calls — same key or not —
// pipeline there, and it assigns their sequence numbers in arrival order.
func (c *NetCluster) WriteKey(k RegisterID, v int64) error {
	if err := c.write(k, core.Value(v), time.Now().Add(c.opts.opTimeout), writeAt); err != nil {
		return fmt.Errorf("churnreg: net write %v: %w", k, err)
	}
	return nil
}

// WriteBatch stores several keys' values: one WriteKey per key, all in
// flight at once up to a node's operation table (core.MaxInFlightOps).
// It returns the first failure to arrive. A batch is not atomic: each
// key's write succeeds or fails on its own.
func (c *NetCluster) WriteBatch(kvs map[RegisterID]int64) error {
	errs := make(chan error, len(kvs))
	sem := make(chan struct{}, core.MaxInFlightOps)
	for k, v := range kvs {
		sem <- struct{}{}
		go func() {
			errs <- c.WriteKey(k, v)
			<-sem
		}()
	}
	var first error
	for range kvs {
		if err := <-errs; first == nil {
			first = err
		}
	}
	return first
}

// writeFunc runs one write at one process.
type writeFunc func(tr *nettransport.Transport, k core.RegisterID, v core.Value, timeout time.Duration) error

// writeAt is the writeFunc every caller but a test uses.
func writeAt(tr *nettransport.Transport, k core.RegisterID, v core.Value, timeout time.Duration) error {
	_, err := tr.WriteKey(k, v, timeout)
	return err
}

// write runs one write where its key's sequence numbers are minted:
// Route's attempt 0 under the lowest present process's view (the lowest
// present id when unsharded). Views lag, and the target may have stopped
// or left: a write refused before invocation was not applied, so it is
// routed again, δ later, until the deadline.
func (c *NetCluster) write(k core.RegisterID, v core.Value, deadline time.Time, w writeFunc) error {
	for {
		ids := c.IDs()
		if len(ids) == 0 {
			return ErrNoActiveProcess
		}
		tr, err := c.get(c.view(ids).Route(ids, k, 0))
		if err == nil {
			err = w(tr, k, v, time.Until(deadline))
		}
		if !refusedBeforeInvocation(err) || !time.Now().Before(deadline) {
			return err
		}
		time.Sleep(time.Duration(c.opts.delta) * c.opts.tick)
	}
}

// refusedBeforeInvocation reports an error that proves the write never
// ran: its target was not the key's primary in its own view, was gone,
// or had stopped.
func refusedBeforeInvocation(err error) bool {
	return errors.Is(err, core.ErrUnroutable) || errors.Is(err, ErrNoActiveProcess) || errors.Is(err, nettransport.ErrClosed)
}

// WriteKeyAt stores v in one register via a specific process. Sharded,
// only the key's primary accepts it: anywhere else it fails unapplied.
func (c *NetCluster) WriteKeyAt(id ProcessID, k RegisterID, v int64) error {
	tr, err := c.get(id)
	if err != nil {
		return err
	}
	if _, err := tr.WriteKey(k, core.Value(v), c.opts.opTimeout); err != nil {
		return fmt.Errorf("churnreg: net write %v at %v: %w", k, id, err)
	}
	return nil
}

// ReadAt reads register 0 via a specific process.
func (c *NetCluster) ReadAt(id ProcessID) (int64, error) {
	return c.ReadKeyAt(id, core.DefaultRegister)
}

// ReadKeyAt reads one register via a specific process. Sharded, a
// synchronous read at a process outside k's replica group fails
// unserved; a quorum read there asks the group.
func (c *NetCluster) ReadKeyAt(id ProcessID, k RegisterID) (int64, error) {
	tr, err := c.get(id)
	if err != nil {
		return 0, err
	}
	v, err := tr.ReadKey(k, c.opts.opTimeout)
	if err != nil {
		return 0, fmt.Errorf("churnreg: net read %v at %v: %w", k, id, err)
	}
	if v.IsBottom() {
		return 0, ErrValueUnavailable
	}
	return int64(v.Val), nil
}

// Read reads register 0 (see ReadKey).
func (c *NetCluster) Read() (int64, error) { return c.ReadKey(core.DefaultRegister) }

// ReadKey reads one register at Route's attempts 1..n over the present
// processes, so the writer comes last: the key's replicas when sharded,
// every present process otherwise.
func (c *NetCluster) ReadKey(k RegisterID) (int64, error) {
	ids := c.IDs()
	if len(ids) == 0 {
		return 0, ErrNoActiveProcess
	}
	view := c.view(ids)
	var err error
	for i := 1; i <= len(ids); i++ {
		var v int64
		if v, err = c.ReadKeyAt(view.Route(ids, k, i), k); err == nil {
			return v, nil
		}
	}
	return 0, err
}
