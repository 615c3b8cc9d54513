// Package client is the wire-native SDK for a churnreg register system:
// it speaks the binary wire protocol directly to the regserve processes,
// keeping a cached placement view so every operation goes to a server
// that can serve it locally — reads to any member of the key's replica
// group, writes straight to the shard primary — instead of paying the
// HTTP edge plus a server-side FORWARD relay hop.
//
// # Sessions
//
// A Client pools one pipelined TCP connection per server it talks to.
// Each is a link: callers append their encoded operations to the
// connection's buffer and one writer goroutine hands whatever has
// gathered there to a single conn.Write, so operations issued together
// travel together (Stats.FramesSent over Stats.Flushes says how many).
// One reader goroutine per connection resolves replies against that
// connection's table of pending operations, and one sweep per client
// fails the operations that outlive OpTimeout. Close waits for all of
// them. The handshake is a HELLO frame carrying wire.RoleClient, which the
// server answers with its own HELLO and a VIEW frame: the placement's
// shard/replication constants plus the member address book. Placement
// assignment is deterministic in the member ids (rendezvous hashing), so
// the client rebuilds the same group tables locally from the member list
// alone. Servers push a fresh VIEW on every membership change; the
// client also re-requests one whenever an operation is refused, so a
// stale cache heals on the next routing miss at the latest.
//
// # Operations and the ambiguity contract
//
// Operations are FORWARD/FORWARDED pairs tagged with client-minted
// operation ids, pipelined freely over each connection. Reads are
// idempotent: a timed-out or refused read retries against the next
// replica. A write is retried only while the client KNOWS it was not
// applied (an explicit refusal — wrong replica, not active, busy). Once
// the write frame has fully left for a server that then goes silent, the
// op may or may not have been applied; the client surfaces that as an
// AmbiguousWriteError wrapping ErrUnacknowledged and never retries
// blindly — re-issuing could store one value under two sequence numbers,
// the exact fault the per-key single-writer discipline exists to
// prevent. The caller decides: re-read to observe, or re-write knowing
// the risk.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/placement"
	"churnreg/internal/wire"
)

// Errors surfaced by Read and Write.
var (
	// ErrUnacknowledged marks an ambiguous write: it may or may not have
	// been applied. Never retried by the client; see AmbiguousWriteError.
	ErrUnacknowledged = errors.New("client: write unacknowledged (may or may not have been applied)")
	// ErrUnroutable marks a clean failure: the operation was not applied
	// anywhere, every routing attempt was refused or unreachable.
	ErrUnroutable = errors.New("client: operation unroutable")
	// ErrClosed is returned once the client has been closed.
	ErrClosed = errors.New("client: closed")
	// ErrNoView is returned when no server delivered a placement view
	// within the dial timeout.
	ErrNoView = errors.New("client: no placement view from any seed")
)

// AmbiguousWriteError is the typed ambiguous-write result: the write's
// fate is unknown (the target went silent after the frame was sent). It
// wraps ErrUnacknowledged, so errors.Is(err, ErrUnacknowledged) selects
// it.
type AmbiguousWriteError struct {
	// Key and Val identify the write whose fate is unknown.
	Key int64
	Val int64
	// Server is the process the final attempt targeted.
	Server int64
}

// Error implements error.
func (e *AmbiguousWriteError) Error() string {
	return fmt.Sprintf("client: write key=%d val=%d to server %d unacknowledged (may or may not have been applied)",
		e.Key, e.Val, e.Server)
}

// Unwrap makes errors.Is(err, ErrUnacknowledged) true.
func (e *AmbiguousWriteError) Unwrap() error { return ErrUnacknowledged }

// Versioned is one register value with its sequence number (SN -1 means
// the register was never written).
type Versioned struct {
	Val int64
	SN  int64
}

// Config assembles a Client.
type Config struct {
	// Seeds are wire (protocol, not HTTP) addresses of one or more
	// servers; the first reachable one bootstraps the placement view and
	// the rest of the membership is learned from it.
	Seeds []string
	// DialTimeout bounds one connection attempt plus the view handshake
	// (default 2s).
	DialTimeout time.Duration
	// OpTimeout bounds one operation attempt end to end (default 5s). A
	// read that times out retries another replica within the same call; a
	// write that times out is ambiguous and fails. Deadlines are checked
	// eight times per OpTimeout, so an unanswered attempt fails between
	// OpTimeout and nine eighths of it.
	OpTimeout time.Duration
	// MaxAttempts bounds routing attempts per operation (default 6).
	MaxAttempts int
	// RetryBackoff spaces attempts after an explicit refusal (default
	// 10ms, doubling per attempt up to 250ms).
	RetryBackoff time.Duration
	// Logf, when set, receives client-level diagnostics.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() error {
	if len(c.Seeds) == 0 {
		return errors.New("client: no seeds")
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 5 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// Stats counts client activity (snapshot; all counters are cumulative).
type Stats struct {
	// Reads and Writes count completed successful operations.
	Reads, Writes uint64
	// Retries counts extra routing attempts beyond each op's first.
	Retries uint64
	// Refreshes counts adopted placement views beyond the bootstrap.
	Refreshes uint64
	// AmbiguousWrites counts writes that failed ErrUnacknowledged.
	AmbiguousWrites uint64
	// Redials counts connection (re)establishments beyond each address's
	// first.
	Redials uint64
	// Flushes counts conn.Write calls and FramesSent the frames they
	// carried (operations, plus the HELLO and VIEW_REQ frames of the
	// session): FramesSent/Flushes is how many frames a connection's
	// writer found queued each time it ran.
	Flushes, FramesSent uint64
}

// viewState is one adopted placement snapshot. Immutable once built;
// swapped whole under the client mutex.
type viewState struct {
	// source is the server address the snapshot came from, and version
	// its per-server monotone stamp (stamps from different servers are
	// not comparable — each server runs its own counter).
	source  string
	version uint64
	// view is the locally rebuilt placement (nil when the system is
	// unsharded: any member serves any key).
	view *placement.View
	// addrs maps member ids to wire addresses; order fixes an iteration
	// order for unsharded round-robin.
	addrs map[core.ProcessID]string
	order []core.ProcessID
}

// Client is a wire-native handle to a churnreg system. Safe for
// concurrent use; operations pipeline over pooled connections.
type Client struct {
	cfg   Config
	opSeq atomic.Uint64
	rr    atomic.Uint64
	// epoch is what operation deadlines are measured from (a monotonic
	// reading is cheaper to take and compare than a wall-clock time).
	epoch time.Time

	mu     sync.Mutex
	conns  map[string]*serverConn
	view   *viewState
	viewCh chan struct{} // closed and replaced on every view adoption
	closed bool

	// quit stops the sweep; wg counts it and every connection's reader
	// and writer (added under mu, so Close's Wait sees them all).
	quit chan struct{}
	wg   sync.WaitGroup

	stats struct {
		reads, writes, retries, refreshes, ambiguous, redials atomic.Uint64
		flushes, framesSent                                   atomic.Uint64
	}
}

// errNotSent marks an attempt whose frame provably never left the
// client: clean for reads AND writes, safe to re-route.
var errNotSent = errors.New("client: frame not sent")

// errMaybeSent marks an attempt whose frame (possibly) reached the
// server but drew no answer: still clean for reads, ambiguous for
// writes.
var errMaybeSent = errors.New("client: frame sent, no reply")

// Dial connects to the seeds and returns a ready Client: at least one
// seed must complete the view handshake within DialTimeout.
func Dial(cfg Config) (*Client, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	c := &Client{
		cfg:    cfg,
		epoch:  time.Now(),
		conns:  make(map[string]*serverConn),
		viewCh: make(chan struct{}),
		quit:   make(chan struct{}),
	}
	c.wg.Add(1)
	go c.sweepLoop()
	deadline := time.Now().Add(cfg.DialTimeout)
	var lastErr error
	for _, seed := range cfg.Seeds {
		if _, err := c.getConn(seed); err != nil {
			lastErr = err
			continue
		}
		if c.waitView(0, deadline) {
			return c, nil
		}
	}
	c.Close()
	if lastErr != nil {
		return nil, fmt.Errorf("%w (last dial error: %v)", ErrNoView, lastErr)
	}
	return nil, ErrNoView
}

// Close tears down every connection and returns once every goroutine the
// client started has exited. In-flight operations fail.
func (c *Client) Close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.quit)
		for _, sc := range c.conns {
			sc.hangUp()
		}
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// Stats snapshots the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		Reads:           c.stats.reads.Load(),
		Writes:          c.stats.writes.Load(),
		Retries:         c.stats.retries.Load(),
		Refreshes:       c.stats.refreshes.Load(),
		AmbiguousWrites: c.stats.ambiguous.Load(),
		Redials:         c.stats.redials.Load(),
		Flushes:         c.stats.flushes.Load(),
		FramesSent:      c.stats.framesSent.Load(),
	}
}

// ViewVersion reports the adopted placement view's stamp (0 before the
// bootstrap completes). Stamps are monotone per serving source.
func (c *Client) ViewVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.view == nil {
		return 0
	}
	return c.view.version
}

// Members reports the ids of the servers in the adopted view.
func (c *Client) Members() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.view == nil {
		return nil
	}
	out := make([]int64, 0, len(c.view.order))
	for _, id := range c.view.order {
		out = append(out, int64(id))
	}
	return out
}

// Sharded reports whether the system partitions the keyspace (false:
// any server serves any key).
func (c *Client) Sharded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view != nil && c.view.view != nil
}

// Read returns key's current value. The read is served by a member of
// the key's replica group; timed-out or refused attempts retry other
// replicas (reads are idempotent).
func (c *Client) Read(key int64) (Versioned, error) {
	v, _, err := c.ReadServed(key)
	return v, err
}

// ReadServed is Read plus the id of the process whose local state served
// the value — under direct routing, a member of the key's replica group.
func (c *Client) ReadServed(key int64) (Versioned, int64, error) {
	reg := core.RegisterID(key)
	backoff := c.cfg.RetryBackoff
	seed := int(c.rr.Add(1) - 1)
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.stats.retries.Add(1)
		}
		vs := c.currentView()
		if vs == nil {
			return Versioned{}, 0, ErrClosed
		}
		addr, _, ok := c.readTarget(vs, reg, seed+attempt)
		if !ok {
			c.refreshAndWait(vs)
			sleep(backoff)
			backoff = nextBackoff(backoff)
			continue
		}
		sc, err := c.getConn(addr)
		if err != nil {
			// Nothing was sent: clean, re-route (the member may be gone —
			// refresh so the next attempt routes on fresher placement).
			c.refreshAndWait(vs)
			continue
		}
		reply, err := c.roundTrip(sc, core.ForwardMsg{Op: c.nextOp(), Reg: reg})
		if err != nil {
			// Timeout or broken connection: the read is idempotent, try
			// the next replica.
			continue
		}
		if reply.Code == core.ForwardOK {
			c.stats.reads.Add(1)
			return Versioned{Val: int64(reply.Value.Val), SN: int64(reply.Value.SN)}, int64(reply.From), nil
		}
		// Explicit refusal: not served; our placement likely lags the
		// server's. Refresh, back off, re-route.
		c.refreshAndWait(vs)
		sleep(backoff)
		backoff = nextBackoff(backoff)
	}
	return Versioned{}, 0, fmt.Errorf("%w: read key=%d after %d attempts", ErrUnroutable, key, c.cfg.MaxAttempts)
}

// Write stores val under key and returns the stored ⟨val, sn⟩. The write
// runs at the key's shard primary. Explicit refusals (the op was NOT
// applied) re-route after a view refresh; a target that goes silent
// after the frame was sent fails with AmbiguousWriteError — never a
// blind retry.
func (c *Client) Write(key, val int64) (Versioned, error) {
	reg := core.RegisterID(key)
	backoff := c.cfg.RetryBackoff
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.stats.retries.Add(1)
		}
		vs := c.currentView()
		if vs == nil {
			return Versioned{}, ErrClosed
		}
		addr, target, ok := c.writeTarget(vs, reg, attempt)
		if !ok {
			c.refreshAndWait(vs)
			sleep(backoff)
			backoff = nextBackoff(backoff)
			continue
		}
		sc, err := c.getConn(addr)
		if err != nil {
			// Nothing was sent: clean. The primary may be dead; refresh so
			// the next attempt routes to its successor.
			c.refreshAndWait(vs)
			sleep(backoff)
			backoff = nextBackoff(backoff)
			continue
		}
		reply, err := c.roundTrip(sc, core.ForwardMsg{Op: c.nextOp(), Reg: reg, IsWrite: true, Val: core.Value(val)})
		if errors.Is(err, errNotSent) {
			// The frame provably never left: clean, re-route after a
			// refresh (the connection just died — placement likely moved).
			c.refreshAndWait(vs)
			sleep(backoff)
			backoff = nextBackoff(backoff)
			continue
		}
		if err != nil {
			// The frame left for the target and no answer came back: the
			// write may have been applied. Ambiguous, by contract.
			c.stats.ambiguous.Add(1)
			return Versioned{}, &AmbiguousWriteError{Key: key, Val: val, Server: int64(target)}
		}
		if reply.Code == core.ForwardOK {
			c.stats.writes.Add(1)
			return Versioned{Val: int64(reply.Value.Val), SN: int64(reply.Value.SN)}, nil
		}
		// Explicit refusal: the server did NOT apply the write, retrying
		// is safe. Refresh the view first — a refusal usually means the
		// primary moved.
		c.refreshAndWait(vs)
		sleep(backoff)
		backoff = nextBackoff(backoff)
	}
	return Versioned{}, fmt.Errorf("%w: write key=%d after %d attempts", ErrUnroutable, key, c.cfg.MaxAttempts)
}

// nextOp mints a client-unique operation id.
func (c *Client) nextOp() core.OpID { return core.OpID(c.opSeq.Add(1)) }

// currentView snapshots the adopted view (nil once closed).
func (c *Client) currentView() *viewState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	return c.view
}

// readTarget picks the server for one read attempt: a member of the
// key's replica group (rotated by attempt so retries spread and a dead
// member does not blackhole the key), or any member when unsharded.
func (c *Client) readTarget(vs *viewState, reg core.RegisterID, attempt int) (string, core.ProcessID, bool) {
	if vs.view == nil {
		return c.anyMember(vs, attempt)
	}
	g := vs.view.Group(reg)
	if len(g) == 0 {
		return "", 0, false
	}
	id := g[attempt%len(g)]
	addr, ok := vs.addrs[id]
	return addr, id, ok
}

// writeTarget picks the server for one write attempt: always the key's
// shard primary (sequence numbers for a key are minted by one process),
// or any member when unsharded.
func (c *Client) writeTarget(vs *viewState, reg core.RegisterID, attempt int) (string, core.ProcessID, bool) {
	if vs.view == nil {
		return c.anyMember(vs, attempt)
	}
	g := vs.view.Group(reg)
	if len(g) == 0 {
		return "", 0, false
	}
	addr, ok := vs.addrs[g[0]]
	return addr, g[0], ok
}

// anyMember round-robins over the unsharded membership.
func (c *Client) anyMember(vs *viewState, salt int) (string, core.ProcessID, bool) {
	if len(vs.order) == 0 {
		return "", 0, false
	}
	id := vs.order[(int(c.rr.Add(1))+salt)%len(vs.order)]
	return vs.addrs[id], id, true
}

// roundTrip queues the op's FORWARD on sc and waits for whoever takes the
// op out of the connection's pending table to say how it ended: the
// reader with the FORWARDED reply, the sweep with a timeout, the writer
// with the connection's death. Failures keep the distinction the write
// ambiguity contract turns on: errNotSent (provably never left — clean)
// versus errMaybeSent (sent or partially sent, no answer — ambiguous if
// it was a write).
func (c *Client) roundTrip(sc *serverConn, m core.ForwardMsg) (core.ForwardedMsg, error) {
	op := opPool.Get().(*pendingOp)
	op.id = m.Op
	op.deadline = time.Since(c.epoch) + c.cfg.OpTimeout
	if !sc.send(wire.Frame{Type: wire.FrameMsg, Msg: m}, op) {
		opPool.Put(op)
		return core.ForwardedMsg{}, errNotSent
	}
	out := <-op.done
	opPool.Put(op)
	return out.msg, out.err
}

// refreshAndWait asks for a fresh view and briefly waits for one newer
// than stale (bounded; routing proceeds on whatever is adopted by then).
func (c *Client) refreshAndWait(stale *viewState) {
	c.mu.Lock()
	cur := c.view
	var any *serverConn
	for _, sc := range c.conns {
		if sc.alive() {
			any = sc
			break
		}
	}
	c.mu.Unlock()
	if cur != stale && cur != nil {
		return // already newer than what the caller routed on
	}
	if any != nil {
		any.send(wire.Frame{Type: wire.FrameViewReq}, nil)
	} else {
		// Every pooled connection is dead: re-bootstrap from the seeds
		// (plus the last known membership) — dialing adopts the VIEW the
		// handshake carries.
		addrs := append([]string{}, c.cfg.Seeds...)
		if stale != nil {
			for _, id := range stale.order {
				addrs = append(addrs, stale.addrs[id])
			}
		}
		for _, a := range addrs {
			if _, err := c.getConn(a); err == nil {
				break
			}
		}
	}
	deadline := time.Now().Add(c.cfg.DialTimeout / 4)
	staleVer := uint64(0)
	if stale != nil {
		staleVer = stale.version
	}
	c.waitView(staleVer, deadline)
}

// waitView blocks until a view newer than minVersion is adopted or the
// deadline passes; reports success.
func (c *Client) waitView(minVersion uint64, deadline time.Time) bool {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return false
		}
		if c.view != nil && c.view.version > minVersion {
			c.mu.Unlock()
			return true
		}
		ch := c.viewCh
		c.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return false
		}
		timer := time.NewTimer(wait)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			return false
		}
	}
}

// adoptView installs a VIEW frame received from source. Versions are
// per-server counters, so ordering is enforced only against pushes from
// the same source; a different server's view is adopted when its member
// set differs (membership news travels regardless of which server
// reports it first).
func (c *Client) adoptView(source string, f wire.Frame) {
	vs := &viewState{
		source:  source,
		version: f.ViewVersion,
		addrs:   make(map[core.ProcessID]string, len(f.Peers)),
	}
	members := make([]core.ProcessID, 0, len(f.Peers))
	for _, p := range f.Peers {
		if _, dup := vs.addrs[p.ID]; dup {
			continue
		}
		vs.addrs[p.ID] = p.Addr
		members = append(members, p.ID)
	}
	vs.order = members
	if f.Shards > 0 {
		cfg := placement.Config{Shards: int(f.Shards), Replication: int(f.Replication)}
		vs.view = placement.Build(cfg, members)
	}
	c.mu.Lock()
	cur := c.view
	adopt := cur == nil ||
		(cur.source == source && f.ViewVersion > cur.version) ||
		(cur.source != source && !sameMembers(cur, vs))
	if adopt {
		if cur != nil {
			c.stats.refreshes.Add(1)
		}
		c.view = vs
		close(c.viewCh)
		c.viewCh = make(chan struct{})
	}
	c.mu.Unlock()
}

// sameMembers reports whether two view states cover the same member ids.
func sameMembers(a, b *viewState) bool {
	if len(a.addrs) != len(b.addrs) {
		return false
	}
	for id := range a.addrs {
		if _, ok := b.addrs[id]; !ok {
			return false
		}
	}
	return true
}

// getConn returns the pooled connection for addr, dialing if absent.
func (c *Client) getConn(addr string) (*serverConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if sc := c.conns[addr]; sc != nil && sc.alive() {
		c.mu.Unlock()
		return sc, nil
	}
	if c.conns[addr] != nil {
		c.stats.redials.Add(1)
	}
	c.mu.Unlock()

	// Dial outside the client lock.
	conn, err := net.DialTimeout("tcp", addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	sc := newServerConn(c, addr, conn)
	// The HELLO waits in the buffer for the writer: it leads the session's
	// first write, whatever else is queued by then.
	sc.send(wire.Frame{Type: wire.FrameHello, Role: wire.RoleClient}, nil)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	if cur := c.conns[addr]; cur != nil && cur.alive() {
		// Lost a dial race; use the winner.
		c.mu.Unlock()
		conn.Close()
		return cur, nil
	}
	c.conns[addr] = sc
	c.wg.Add(2)
	c.mu.Unlock()
	go sc.readLoop()
	go sc.writeLoop()
	return sc, nil
}

// sleep pauses between retries (a plain sleep: retry pacing needs no
// cancellation precision).
func sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

func nextBackoff(d time.Duration) time.Duration {
	if d *= 2; d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	return d
}
