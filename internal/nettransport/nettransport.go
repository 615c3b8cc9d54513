// Package nettransport runs one register-protocol process over real TCP.
// It implements the same core.Env contract as internal/livenet and the
// deterministic simulator, so the protocol state machines of
// internal/syncreg, internal/esyncreg, internal/abd and
// internal/multiwriter run over actual sockets unmodified — this is the
// transport behind cmd/regserve and the public NetCluster.
//
// # Topology
//
// Every process listens on one TCP address and dials every peer it knows,
// so a healthy system is a full mesh (two connections per pair — one
// dialed by each side — which keeps connection ownership trivial: a
// process only ever writes protocol traffic to connections it dialed).
// The address book maps core.ProcessID to listen address and is built by
// a handshake-plus-gossip scheme:
//
//   - The first frame on every dialed connection is HELLO(id, listenAddr).
//   - The acceptor replies on the same connection with its own HELLO and a
//     PEERS frame carrying its whole address book, then gossips the
//     newcomer's entry to every peer it already knows.
//   - Receivers of PEERS entries dial any process they did not yet know.
//
// A fresh process therefore joins by dialing any live subset of the
// system ("seeds"): within a round-trip it knows — and is known by —
// every reachable process, exactly the precondition the paper's join
// protocol needs for its INQUIRY broadcast.
//
// # Reliability
//
// The paper's network neither loses, creates, nor modifies messages; a
// message is lost only when its destination has left. Each known peer has
// an outbound link whose writer goroutine dials, redials with backoff and
// re-sends HELLO after every reconnect; frames queued while the connection
// is down wait on the link. The link is bounded, and today's overflow
// policy drops the oldest-queued frame and counts it (Stats.QueueDrops)
// even on a healthy connection — weaker than the paper's channel: the
// quorum protocols absorb it, the synchronous one does not, and ROADMAP 2a
// narrows it to links whose destination may truly have left. For the one
// message where late delivery changes correctness — a joiner's INQUIRY —
// the transport replays the broadcast to peers learned while the join is
// still in progress, so discovering the membership and inquiring over it
// are not racy.
//
// # Concurrency
//
// The node is a monitor: one mutex owns it, and whoever brings it work
// runs that work — a connection's reader the frames it read, the clock's
// goroutine the After callbacks that are due, the caller of Invoke its
// closure — so nothing the node does waits to be scheduled. Work goes in
// turns. A turn runs a task and then every message the node addressed to
// itself meanwhile, from a FIFO the monitor owns: after the handler that
// sent it has returned, so never re-entrantly; before the next task; with
// no timer or goroutine, because a process's message to itself costs no
// message delay (it is still asynchronous, which is all core.Env
// promises). A reader stays for every whole frame already in its
// scanner's buffer — what the remote flushed together. When the producer
// has nothing more, or after turnTasks steps, the turn ends: each link it
// queued frames on is flushed, once, and the monitor released — between
// two turns of one producer too, so a node that keeps messaging itself
// starves nobody.
//
// Timers are a producer like a reader. After pushes its callback on a
// deadline heap the monitor owns; one clock — a timerfd in the runtime's
// netpoller on Linux, so a deadline is met at kernel precision rather than
// at the idle runtime's next whole millisecond — wakes one goroutine per
// expiry, which runs every callback then due, in deadline order, as the
// tasks of one turn. A callback never runs early, and never after Close.
//
// A link (a peer's dialed connection, or a client session's accepted one)
// owns a mutex-guarded append buffer of encoded frames; senders encode a
// message once and append the bytes to each destination link. The flush
// that ends a turn is ONE non-blocking write on the link's live
// connection: a handler's goroutine never parks on a socket, or two nodes
// with full buffers would wait for each other to read. All else is the
// link's writer goroutine, the only blocking writer and the slow path of
// the same flush: dial, HELLO, redial, a connection that is not a
// syscall.Conn, frames queued outside the monitor, and what a short write
// or EAGAIN left. The batch in flight keeps an offset that holds on the
// live connection only; when that dies the next one carries HELLO, then
// the batch from its first byte, a frame boundary: the remote may see a
// frame twice, never the tail of one.
//
// The node reaches this through loopEnv, the core.Env its factory got,
// which assumes the monitor held. The exported Send, Broadcast and Invoke
// are for every other goroutine; inside a handler they would wait for the
// monitor their own goroutine holds, which is illegal (tests make it a
// panic: Transport.goid). Lock order: monitor → link.wmu (only tried) →
// link.mu, and monitor → Transport.mu, which guards the address book and
// the connection set and under which no lock is taken, never the monitor.
package nettransport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/nodeops"
	"churnreg/internal/placement"
	"churnreg/internal/sim"
	"churnreg/internal/wire"
)

// ErrClosed is returned once the transport has been shut down.
var ErrClosed = errors.New("nettransport: transport closed")

// Config assembles one TCP-backed process.
type Config struct {
	// ID is this process's identity. The operator (or NetCluster) must
	// keep IDs unique across the whole system's lifetime — the paper's
	// infinite-arrival model never reuses one.
	ID core.ProcessID
	// ListenAddr is the TCP address to bind ("127.0.0.1:0" for an
	// ephemeral port; Addr() reports the bound address).
	ListenAddr string
	// N is the constant system size every process knows.
	N int
	// Delta is δ in ticks.
	Delta sim.Duration
	// Tick is the real duration of one tick (default 1ms). δ×Tick must
	// comfortably exceed network latency plus scheduling slop for the
	// synchronous protocol.
	Tick time.Duration
	// Factory builds the protocol node.
	Factory core.NodeFactory
	// Bootstrap marks one of the n initial processes (active immediately,
	// holding the initial values).
	Bootstrap bool
	// Initial is register 0's initial value (bootstrap only).
	Initial core.VersionedValue
	// InitialKeys optionally pre-provisions further registers (bootstrap
	// only; ascending Reg order).
	InitialKeys []core.KeyedValue
	// DialTimeout bounds one connection attempt (default 1s).
	DialTimeout time.Duration
	// HandshakeWait bounds how long Start waits for seed handshakes before
	// starting the protocol anyway (default 2s; dead seeds are expected —
	// a replacement process is often handed the address of the process it
	// replaces).
	HandshakeWait time.Duration
	// QueueLen is how many frames one link (a peer, or a client session)
	// may hold queued (default 512; regserve -queue). Overflow drops the
	// oldest-queued frame and counts it in Stats.QueueDrops.
	QueueLen int
	// EvictAfter drops a peer whose dials have failed continuously for
	// this long (default 15s). Graceful departures announce themselves
	// with LEAVE, but that frame is best-effort (the leaver's links may
	// be down at the moment of departure) and crashes announce nothing;
	// under the paper's infinite-arrival model a departed process never
	// returns under the same identity, so persistent unreachability IS
	// departure — eviction keeps survivors from redialing dead addresses
	// forever.
	EvictAfter time.Duration
	// Logf, when set, receives transport-level diagnostics.
	Logf func(format string, args ...any)
	// Placement, when enabled, shards the keyspace: the transport
	// rebuilds the placement view from its identified address book (plus
	// itself) whenever a peer is learned, leaves, or is evicted, exposes
	// it to the protocol via core.Placed, and notifies the node (the
	// internal/shard wrapper) under the monitor. Pair with a shard.Factory-
	// wrapped Factory; every process of one system must agree on the
	// Shards/Replication numbers (like N, they are deployment constants).
	Placement placement.Config
}

func (c *Config) fillDefaults() error {
	if c.ID == core.NoProcess {
		return fmt.Errorf("nettransport: ID must be a real process id")
	}
	if c.N <= 0 {
		return fmt.Errorf("nettransport: N = %d, want > 0", c.N)
	}
	if c.Delta < 1 {
		return fmt.Errorf("nettransport: Delta = %d, want >= 1", c.Delta)
	}
	if c.Factory == nil {
		return fmt.Errorf("nettransport: nil factory")
	}
	if c.Tick <= 0 {
		c.Tick = time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.HandshakeWait <= 0 {
		c.HandshakeWait = 2 * time.Second
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 512
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = 15 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if err := c.Placement.Validate(); err != nil {
		return fmt.Errorf("nettransport: %w", err)
	}
	return nil
}

// Stats counts transport activity (read under no lock; all fields are
// atomics).
type Stats struct {
	FramesSent     atomic.Uint64
	FramesReceived atomic.Uint64
	QueueDrops     atomic.Uint64 // frames dropped on a full link
	SendUnknown    atomic.Uint64 // sends to ids with no address-book entry
	Reconnects     atomic.Uint64 // successful dials beyond a peer's first
	DecodeErrors   atomic.Uint64
	// FlushWrites counts the writes that carried frames to a connection,
	// from a turn's end or from a link's writer; FlushedFrames counts the
	// frames they carried. Their ratio (FramesPerWrite) is the coalescing
	// factor: 1.0 means every frame paid its own syscall, higher means the
	// turn is amortizing.
	FlushWrites   atomic.Uint64
	FlushedFrames atomic.Uint64
	// InlineFlushes counts the non-blocking writes that ended turns, made
	// by the goroutine that ran the turn; FlushHandoffs those the socket cut
	// short or refused, leaving the rest of the batch to the link's writer.
	InlineFlushes atomic.Uint64
	FlushHandoffs atomic.Uint64
	// LastBatchFrames is a gauge: the frame count of the most recently
	// flushed batch.
	LastBatchFrames atomic.Uint64
	// MailboxStalls counts producers that found the node's monitor held
	// and had to wait for it — work that waited for the node; sustained
	// growth means the node is the bottleneck (shed load).
	MailboxStalls atomic.Uint64
	// LoopTurns counts the monitor's turns and LoopTasks the tasks they
	// ran: tasks per turn is the batching a turn achieves (each link is
	// flushed once per turn). SelfDeliveries counts messages the node
	// addressed to itself, delivered from the monitor's own FIFO.
	LoopTurns      atomic.Uint64
	LoopTasks      atomic.Uint64
	SelfDeliveries atomic.Uint64
	// TimerFires counts After callbacks run, and TimerLateNanos sums how
	// far past its deadline each one's turn began. TimerOverruns counts the
	// callbacks that began more than δ late: the process itself stalled
	// past δ, which breaks the synchronous model for whatever waited on it.
	TimerFires     atomic.Uint64
	TimerLateNanos atomic.Uint64
	TimerOverruns  atomic.Uint64
}

// FramesPerWrite reports the average coalescing factor — frames flushed
// per frame-carrying conn.Write — and 0 before the first flush.
func (s *Stats) FramesPerWrite() float64 {
	w := s.FlushWrites.Load()
	if w == 0 {
		return 0
	}
	return float64(s.FlushedFrames.Load()) / float64(w)
}

// Transport hosts one protocol process over TCP.
type Transport struct {
	cfg   Config
	ln    net.Listener
	start time.Time

	node    core.Node
	quit    chan struct{}
	stopped sync.Once
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu     sync.Mutex
	byAddr map[string]*peer
	byID   map[core.ProcessID]*peer
	conns  map[net.Conn]struct{}
	// sessions holds the live client sessions (accepted connections whose
	// HELLO declared wire.RoleClient), keyed by the negative pseudo-id the
	// transport minted for each. Client sessions are served, never meshed:
	// they are absent from the address book, the gossip, and the placement.
	sessions map[core.ProcessID]*clientSession
	// sessionSeq mints session pseudo-ids (negated, so they can never
	// collide with real process ids, which are positive by construction).
	sessionSeq int64
	closed     bool
	// pendingInquiry is the join INQUIRY, in wire form, to replay to
	// peers learned while this process's join is still running (see
	// package comment); nil once active.
	pendingInquiry []byte
	// viewSeq stamps successive placement views (guarded by mu).
	viewSeq uint64

	// view is the current placement over the identified peers plus self
	// (nil when sharding is disabled). Written under mu, read lock-free
	// by the protocol.
	view atomic.Pointer[placement.View]
	// links is what Send and Broadcast look destinations up in without
	// t.mu: an immutable snapshot, republished (publishLinksLocked)
	// wherever byAddr, byID or sessions change.
	links atomic.Pointer[linkTable]

	// mon is the monitor: it owns the node and the fields below.
	// selfq[selfHead:] holds the messages the node addressed to itself,
	// dirty the links the current turn queued frames on, steps how far into
	// the turn it is. chasing: a producer whose turn left selfq not empty is
	// between turns and will be back for the rest. halted: Close has run.
	// deadlines holds the pending After callbacks, timerSeq numbers them,
	// and clock wakes the tick goroutine, started (ticking) by the first
	// After.
	mon       sync.Mutex
	selfq     []core.Message
	selfHead  int
	dirty     []*link
	steps     int
	chasing   bool
	halted    bool
	deadlines timerHeap
	timerSeq  uint64
	ticking   bool
	clock     clock
	// goid, set by tests only, names the calling goroutine: lock then
	// panics on re-entry (Invoke from a handler) instead of deadlocking.
	goid   func() int64
	holder atomic.Int64

	active atomic.Bool
	stats  Stats
}

var (
	_ core.Env         = (*Transport)(nil)
	_ core.GroupSender = loopEnv{}
)

// loopEnv is the core.Env the node is built with. The node runs only
// inside the monitor, so its sends take the monitor's shortcuts: a
// self-addressed message goes on the monitor-owned FIFO, and a link that
// got frames is flushed once, when the turn ends. Everything else is the
// Transport's.
type loopEnv struct{ *Transport }

// Send implements core.Env.
func (e loopEnv) Send(to core.ProcessID, m core.Message) { e.send(true, m, to) }

// SendGroup implements core.GroupSender: m is encoded once for the group.
func (e loopEnv) SendGroup(to []core.ProcessID, m core.Message) { e.send(true, m, to...) }

// Broadcast implements core.Env.
func (e loopEnv) Broadcast(m core.Message) { e.broadcast(true, m) }

// New binds the listener and builds the protocol node. The transport is
// inert (no goroutines, no dialing) until Start.
func New(cfg Config) (*Transport, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("nettransport: listen %s: %w", cfg.ListenAddr, err)
	}
	clk, err := newClock()
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("nettransport: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &Transport{
		cfg:      cfg,
		ln:       ln,
		start:    time.Now(),
		quit:     make(chan struct{}),
		ctx:      ctx,
		cancel:   cancel,
		byAddr:   make(map[string]*peer),
		byID:     make(map[core.ProcessID]*peer),
		conns:    make(map[net.Conn]struct{}),
		sessions: make(map[core.ProcessID]*clientSession),
		clock:    clk,
	}
	t.links.Store(&linkTable{})
	t.node = cfg.Factory(loopEnv{t}, core.SpawnContext{
		Bootstrap:   cfg.Bootstrap,
		Initial:     cfg.Initial,
		InitialKeys: cfg.InitialKeys,
	})
	return t, nil
}

// Addr returns the bound listen address.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Start launches the network goroutines, dials the seed
// addresses, and starts the protocol node — for a non-bootstrap process
// that begins its join, which is how a fresh OS process enters the
// system. It returns immediately; use WaitActive to block until the join
// completes.
//
// The protocol node is started only once the seeds' handshakes settle (or
// the handshake window closes — dead seeds must not wedge a join
// forever): a joiner's INQUIRY broadcast then reaches the full discovered
// membership, and peers discovered even later get the replay described in
// the package comment. The wait happens off the caller's goroutine
// because bootstrap processes have nothing to wait for and joiners are
// awaited through WaitActive anyway.
func (t *Transport) Start(seeds []string) {
	t.wg.Add(1)
	go t.acceptLoop()
	n := 0
	for _, addr := range seeds {
		if addr == "" || addr == t.Addr() {
			continue
		}
		t.mu.Lock()
		t.ensurePeerLocked(core.NoProcess, addr)
		t.mu.Unlock()
		n++
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		if n > 0 {
			t.awaitHandshakes(n)
		}
		// Publish the placement over whatever membership the handshakes
		// discovered (just self for a seedless bootstrap) before the
		// protocol starts.
		t.refreshPlacement()
		t.do(t.node.Start)
	}()
}

// awaitHandshakes polls until want peers have announced their identity or
// the handshake window closes.
func (t *Transport) awaitHandshakes(want int) {
	deadline := time.Now().Add(t.cfg.HandshakeWait)
	for time.Now().Before(deadline) {
		t.mu.Lock()
		got := len(t.byID)
		t.mu.Unlock()
		if got >= want {
			return
		}
		select {
		case <-t.quit:
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
	t.cfg.Logf("nettransport %v: handshake window closed with %d/%d seeds", t.cfg.ID, t.PeerCount(), want)
}

// Close shuts the process down abruptly: no LEAVE is sent, mirroring a
// crash. Blocks until every transport goroutine exits.
func (t *Transport) Close() {
	t.stopped.Do(func() {
		close(t.quit)
		t.cancel()
		t.mu.Lock()
		t.closed = true
		t.ln.Close()
		for conn := range t.conns {
			conn.Close()
		}
		for _, p := range t.byAddr {
			p.stop()
		}
		t.mu.Unlock()
		// Whoever is inside the monitor finishes its turn; nobody opens
		// another, and no pending callback is kept. Only then is the clock
		// closed: nothing arms it after halted.
		t.mon.Lock()
		t.halted, t.deadlines = true, nil
		t.mon.Unlock()
		t.clock.close()
	})
	t.wg.Wait()
}

// Leave departs gracefully: a LEAVE frame tells every peer to drop this
// process from its address book (so nobody keeps redialing a gone
// process), the links get a moment to flush, then the transport closes.
func (t *Transport) Leave() {
	t.transmit(false, wire.Frame{Type: wire.FrameLeave, From: t.cfg.ID}, t.links.Load().peers...)
	// Bounded flush: wait for every link to drain rather than a fixed
	// sleep. Client sessions count too: a reply queued for a client
	// answers an operation this process already served.
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) && !t.links.Load().drained() {
		time.Sleep(5 * time.Millisecond)
	}
	// One extra tick so the last write in progress and the flushed bytes
	// clear the kernel buffers before the sockets are torn down.
	time.Sleep(10 * time.Millisecond)
	t.Close()
}

// DropConnections closes every open TCP connection without touching the
// listener or the address book: readers exit, writers redial, queued
// frames survive. This is the chaos hook the transport tests use to
// exercise mid-operation reconnects.
func (t *Transport) DropConnections() {
	t.mu.Lock()
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// PeerCount returns the number of identified peers in the address book.
func (t *Transport) PeerCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}

// Peers returns the identified address book (for health endpoints).
func (t *Transport) Peers() []wire.Peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]wire.Peer, 0, len(t.byID))
	for id, p := range t.byID {
		out = append(out, wire.Peer{ID: id, Addr: p.addr})
	}
	return out
}

// Stats exposes the transport counters.
func (t *Transport) Stats() *Stats { return &t.stats }

// Active reports whether the hosted process completed its join (cheap:
// backed by an atomic fed from MarkActive, not a turn of the monitor).
func (t *Transport) Active() bool { return t.active.Load() }

// Invoke runs fn inside the node's monitor, on the caller's goroutine —
// the only legal way to touch the node from outside it. fn has run when
// Invoke returns; it must not wait for anything a handler does, and Invoke
// must not be called from inside a handler (it would wait for itself).
func (t *Transport) Invoke(fn func(core.Node)) error {
	if !t.do(func() { fn(t.node) }) {
		return ErrClosed
	}
	return nil
}

func (t *Transport) invoker() nodeops.Invoke { return t.Invoke }

// WaitActive blocks until the join has returned, or until timeout.
func (t *Transport) WaitActive(timeout time.Duration) error {
	return nodeops.WaitActive(t.invoker(), t.cfg.Tick, timeout)
}

// ReadKey runs a read of one register and waits for its result.
func (t *Transport) ReadKey(reg core.RegisterID, timeout time.Duration) (core.VersionedValue, error) {
	return nodeops.ReadKey(t.invoker(), reg, timeout)
}

// ReadKeyServed is ReadKey plus the process that served the read: this
// process for local/quorum serves, the answering replica for forwarded
// reads on a sharded node.
func (t *Transport) ReadKeyServed(reg core.RegisterID, timeout time.Duration) (core.VersionedValue, core.ProcessID, error) {
	v, server, err := nodeops.ReadKeyServed(t.invoker(), reg, timeout)
	if err == nil && server == core.NoProcess {
		server = t.cfg.ID
	}
	return v, server, err
}

// WriteKey runs a write of one register, waits for it to return ok, and
// reports the exact ⟨v, sn⟩ it stored. Safe for concurrent callers: each
// call pipelines as its own operation on the node.
func (t *Transport) WriteKey(reg core.RegisterID, v core.Value, timeout time.Duration) (core.VersionedValue, error) {
	return nodeops.WriteKey(t.invoker(), reg, v, timeout)
}

// WriteBatch stores several keys' values, waits for all of them, and
// reports the stored ⟨v, sn⟩ per entry.
func (t *Transport) WriteBatch(entries []core.KeyedWrite, timeout time.Duration) ([]core.KeyedValue, error) {
	return nodeops.WriteBatch(t.invoker(), entries, timeout)
}

// SnapshotKey returns the node's local copy of one register.
func (t *Transport) SnapshotKey(reg core.RegisterID, timeout time.Duration) (core.VersionedValue, error) {
	return nodeops.SnapshotKey(t.invoker(), reg, timeout)
}

// ---- core.Env ----

// ID implements core.Env.
func (t *Transport) ID() core.ProcessID { return t.cfg.ID }

// Now implements core.Env: ticks elapsed since the transport was built.
func (t *Transport) Now() sim.Time {
	return sim.Time(time.Since(t.start) / t.cfg.Tick)
}

// Send implements core.Env for callers outside the monitor (the node
// itself sends through loopEnv): the frame is queued on the destination's
// link and the link's writer woken at once; a send to self is a turn of
// its own, taken on the caller's goroutine.
func (t *Transport) Send(to core.ProcessID, m core.Message) { t.send(false, m, to) }

// Broadcast implements core.Env for callers outside the monitor: the
// frame goes to every process in the address book, plus self (the
// simulator's and livenet's contract).
func (t *Transport) Broadcast(m core.Message) { t.broadcast(false, m) }

// send is the one point-to-point path: m is encoded once and queued on
// the link of every remote process in to — a peer, or for a negative id
// the client session whose pseudo-id it is (the reply rides the session's
// own connection; a session is never dialed back). An entry naming this
// process is delivered locally: the quorum protocols count their own
// replies, exactly as in the simulator and livenet.
func (t *Transport) send(inTurn bool, m core.Message, to ...core.ProcessID) {
	select {
	case <-t.quit:
		return
	default:
	}
	tab := t.links.Load()
	var room [8]*link
	ls := room[:0]
	for _, id := range to {
		if id == t.cfg.ID {
			t.deliverSelf(inTurn, m)
		} else if l := tab.byID[id]; l != nil {
			ls = append(ls, l)
		} else {
			t.stats.SendUnknown.Add(1)
		}
	}
	t.transmit(inTurn, wire.Frame{Type: wire.FrameMsg, From: t.cfg.ID, Msg: m}, ls...)
}

// broadcast queues m on every outbound peer and delivers it to self. A
// join INQUIRY is additionally remembered for replay to peers learned
// while the join is still running.
func (t *Transport) broadcast(inTurn bool, m core.Message) {
	select {
	case <-t.quit:
		return
	default:
	}
	f := wire.Frame{Type: wire.FrameMsg, From: t.cfg.ID, Msg: m}
	if inq, ok := m.(core.InquiryMsg); ok && inq.RSN == core.JoinReadSeq && !t.active.Load() {
		if b, err := wire.AppendFrameBytes(nil, f); err == nil {
			t.mu.Lock()
			t.pendingInquiry = b
			t.mu.Unlock()
		}
	}
	t.deliverSelf(inTurn, m)
	t.transmit(inTurn, f, t.links.Load().peers...)
}

// deliverSelf hands the node a message it addressed to itself —
// asynchronously, after the current handler: inside a turn that is an
// append to the FIFO the turn drains before its next task. From outside
// the monitor there is no handler to wait for, and it is a turn.
func (t *Transport) deliverSelf(inTurn bool, m core.Message) {
	if inTurn {
		t.selfq = append(t.selfq, m)
	} else if t.enter() {
		t.run(t.cfg.ID, m, nil)
		t.exit()
	}
}

// transmit encodes f once, length prefix included, and queues the bytes
// on every link in ls.
func (t *Transport) transmit(inTurn bool, f wire.Frame, ls ...*link) {
	if len(ls) == 0 {
		return
	}
	bp := wire.GetBuffer()
	defer wire.PutBuffer(bp)
	b, err := wire.AppendFrameBytes(*bp, f)
	if err != nil {
		t.cfg.Logf("nettransport %v: encode %v: %v", t.cfg.ID, f.Type, err)
		return
	}
	*bp = b // keep what the encode grew
	t.queue(inTurn, b, ls...)
}

// queue appends one encoded frame to each link. Outside the monitor each
// link's writer is woken at once; inside a turn the link is marked and
// flushed when the turn ends: many frames on a link, one write.
func (t *Transport) queue(inTurn bool, frame []byte, ls ...*link) {
	for _, l := range ls {
		if l.push(frame, t.cfg.QueueLen) {
			t.stats.QueueDrops.Add(1)
		}
		if !inTurn {
			l.kick()
		} else if !l.dirty {
			l.dirty = true
			t.dirty = append(t.dirty, l)
		}
	}
	t.stats.FramesSent.Add(uint64(len(ls)))
}

// Delta implements core.Env.
func (t *Transport) Delta() sim.Duration { return t.cfg.Delta }

// SystemSize implements core.Env.
func (t *Transport) SystemSize() int { return t.cfg.N }

// MarkActive implements core.Env: records join completion for Health and
// retires the pending-INQUIRY replay.
func (t *Transport) MarkActive() {
	t.active.Store(true)
	t.mu.Lock()
	t.pendingInquiry = nil
	t.mu.Unlock()
}

// Placement implements core.Placed: the current view over the
// identified peers plus self, nil when sharding is disabled.
func (t *Transport) Placement() core.PlacementView {
	if v := t.view.Load(); v != nil {
		return v
	}
	return nil
}

// ShardInfo reports the placement configuration and this node's share of
// it under the current view: total shards (0 when unsharded), shards
// this node replicates, and the configured replication factor.
func (t *Transport) ShardInfo() (shards, owned, replication int) {
	if !t.cfg.Placement.Enabled() {
		return 0, 0, 0
	}
	v := t.view.Load()
	if v == nil {
		return t.cfg.Placement.Shards, 0, t.cfg.Placement.Replication
	}
	return v.NumShards(), v.OwnedCount(t.cfg.ID), t.cfg.Placement.Replication
}

// refreshPlacement rebuilds the placement view from the identified
// address book plus self, publishes it for the protocol's lock-free
// reads, and runs the node's PlacementChanged. Called whenever
// a peer is learned, leaves, or is evicted. Even with sharding disabled
// the membership change is versioned and pushed to the connected client
// sessions, so an SDK client's server list tracks the live system.
func (t *Transport) refreshPlacement() {
	sharded := t.cfg.Placement.Enabled()
	t.mu.Lock()
	if sharded {
		members := make([]core.ProcessID, 0, len(t.byID)+1)
		members = append(members, t.cfg.ID)
		for id := range t.byID {
			members = append(members, id)
		}
		view := placement.Build(t.cfg.Placement, members)
		t.viewSeq++
		if view != nil {
			view.SetVersion(t.viewSeq)
		}
		t.view.Store(view)
	} else {
		t.viewSeq++
	}
	vf := t.viewFrameLocked()
	t.mu.Unlock()
	t.transmit(false, vf, t.links.Load().sessions...)
	if !sharded {
		return
	}
	if pa, ok := t.node.(core.PlacementAware); ok {
		t.do(func() { pa.PlacementChanged(t.Placement()) })
	}
}

// viewFrameLocked snapshots the placement bootstrap a client session
// needs: the current view version, the deployment's placement constants
// (zero when unsharded), and the member address book including self.
// The client rebuilds the same placement.View locally — Build is
// deterministic in the member ids — so the frame need not carry the
// group tables. t.mu held.
func (t *Transport) viewFrameLocked() wire.Frame {
	f := wire.Frame{Type: wire.FrameView, ViewVersion: t.viewSeq}
	if t.cfg.Placement.Enabled() {
		f.Shards = uint32(t.cfg.Placement.Shards)
		f.Replication = uint32(t.cfg.Placement.Replication)
	}
	f.Peers = append(f.Peers, wire.Peer{ID: t.cfg.ID, Addr: t.Addr()})
	for id, p := range t.byID {
		f.Peers = append(f.Peers, wire.Peer{ID: id, Addr: p.addr})
	}
	return f
}

// ---- internals ----

// turnTasks bounds one turn, self-deliveries included: long enough that a
// busy node pays each link's write once per dozens of frames, short enough
// that a turn's first frame waits well under a millisecond for its flush,
// and a producer no longer for the monitor.
const turnTasks = 64

// lock takes the monitor, counting a stall when it has to wait for it.
func (t *Transport) lock() {
	if !t.mon.TryLock() {
		if t.goid != nil && t.holder.Load() == t.goid() {
			panic("nettransport: Invoke or an exported Send from inside a handler: the monitor is not re-entrant")
		}
		t.stats.MailboxStalls.Add(1)
		t.mon.Lock()
	}
	if t.goid != nil {
		t.holder.Store(t.goid())
	}
}

func (t *Transport) unlock() {
	if t.goid != nil {
		t.holder.Store(0)
	}
	t.mon.Unlock()
}

// enter takes the monitor for a producer with work for the node. It
// reports false, monitor not held, once the transport has stopped. What
// enter opened, exit closes.
func (t *Transport) enter() bool {
	if t.lock(); t.halted {
		t.unlock()
		return false
	}
	return true
}

// run is one task of a turn, monitor held: a message delivery (m != nil,
// carried unboxed: the receive path pays no closure) or fn, then the
// node's messages to itself. A producer whose earlier tasks used the turn
// up starts another first.
func (t *Transport) run(from core.ProcessID, m core.Message, fn func()) {
	if t.steps >= turnTasks && !t.yield() {
		return
	}
	t.stats.LoopTasks.Add(1)
	if m != nil {
		t.node.Deliver(from, m)
	} else {
		fn()
	}
	t.steps++
	t.drainSelf()
}

// drainSelf delivers the self-addressed FIFO, oldest first, while the
// turn lasts.
func (t *Transport) drainSelf() {
	for ; t.steps < turnTasks && t.selfHead < len(t.selfq); t.steps++ {
		m := t.selfq[t.selfHead]
		t.selfq[t.selfHead] = nil
		if t.selfHead++; t.selfHead == len(t.selfq) {
			t.selfq, t.selfHead = t.selfq[:0], 0
		}
		t.stats.SelfDeliveries.Add(1)
		t.node.Deliver(t.cfg.ID, m)
	}
}

// exit ends the producer's last turn and leaves the monitor. Self-addressed
// messages that turn had no room for get further turns, from one producer
// at a time: whoever else finds them still there leaves them to it.
func (t *Transport) exit() {
	for t.selfHead < len(t.selfq) && !t.chasing {
		t.chasing = true
		ok := t.yield()
		if t.chasing = false; !ok {
			break
		}
		t.drainSelf()
	}
	t.endTurn()
	t.unlock()
}

// endTurn flushes, once, every link the turn queued frames on.
func (t *Transport) endTurn() {
	t.stats.LoopTurns.Add(1)
	t.steps = 0
	for i, l := range t.dirty {
		l.dirty = false
		l.flush(t, nil)
		t.dirty[i] = nil
	}
	t.dirty = t.dirty[:0]
}

// yield ends the turn and opens the producer's next, letting go of the
// monitor in between (sync.Mutex hands it to a waiter that has starved
// for a millisecond). It reports false once the transport has stopped.
func (t *Transport) yield() bool {
	t.endTurn()
	t.unlock()
	t.lock()
	return !t.halted
}

// do runs fn as a turn of its own, on the caller's goroutine: Invoke, the
// node's Start and PlacementChanged. It reports false if the transport
// stopped first.
func (t *Transport) do(fn func()) bool {
	if !t.enter() {
		return false
	}
	t.run(core.NoProcess, nil, fn)
	t.exit()
	return true
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.quit:
				return
			default:
			}
			// Transient accept failure; back off briefly and retry.
			select {
			case <-time.After(10 * time.Millisecond):
				continue
			case <-t.quit:
				return
			}
		}
		if !t.trackConn(conn) {
			conn.Close()
			return
		}
		t.wg.Add(1)
		go t.readConn(conn, nil, true, nil)
	}
}

// trackConn registers an open connection for shutdown/chaos teardown.
func (t *Transport) trackConn(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

func (t *Transport) untrackConn(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// linkTable is one immutable snapshot of where frames can go.
type linkTable struct {
	peers    []*link                  // every outbound peer, identified or not: Broadcast's audience
	sessions []*link                  // every client session
	byID     map[core.ProcessID]*link // identified peers, and sessions under their pseudo-ids
}

// drained reports whether no link holds an unwritten frame.
func (tab *linkTable) drained() bool {
	return !slices.ContainsFunc(slices.Concat(tab.peers, tab.sessions), func(l *link) bool { return l.depth() > 0 })
}

// publishLinksLocked rebuilds the table from the address book and the
// session set (t.mu held).
func (t *Transport) publishLinksLocked() {
	tab := &linkTable{byID: make(map[core.ProcessID]*link, len(t.byID)+len(t.sessions))}
	for _, p := range t.byAddr {
		tab.peers = append(tab.peers, &p.link)
	}
	for id, p := range t.byID {
		tab.byID[id] = &p.link
	}
	for id, s := range t.sessions {
		tab.sessions = append(tab.sessions, &s.link)
		tab.byID[id] = &s.link
	}
	t.links.Store(tab)
}

// helloFrame is the first frame on every dialed connection.
func (t *Transport) helloFrame() wire.Frame {
	return wire.Frame{Type: wire.FrameHello, From: t.cfg.ID, Addr: t.Addr()}
}

// peersFrame snapshots the identified address book, including self.
func (t *Transport) peersFrame() wire.Frame {
	t.mu.Lock()
	defer t.mu.Unlock()
	peers := make([]wire.Peer, 0, len(t.byID)+1)
	peers = append(peers, wire.Peer{ID: t.cfg.ID, Addr: t.Addr()})
	for id, p := range t.byID {
		peers = append(peers, wire.Peer{ID: id, Addr: p.addr})
	}
	return wire.Frame{Type: wire.FramePeers, Peers: peers}
}

// ensurePeerLocked returns the outbound peer for addr, creating (and
// launching) it if absent. id may be NoProcess when unknown. t.mu held.
func (t *Transport) ensurePeerLocked(id core.ProcessID, addr string) *peer {
	if t.closed {
		return nil
	}
	p, ok := t.byAddr[addr]
	if !ok {
		p = &peer{link: newLink(), addr: addr, id: id}
		t.byAddr[addr] = p
		t.wg.Add(1)
		go p.run(t)
	}
	if id != core.NoProcess && p.id == core.NoProcess {
		p.id = id
	}
	if p.id != core.NoProcess {
		t.byID[p.id] = p
	}
	t.publishLinksLocked()
	return p
}

// learnPeer records that process id listens at addr, dialing it and
// gossiping its existence if it is new. Safe from any goroutine.
func (t *Transport) learnPeer(id core.ProcessID, addr string) {
	if id == t.cfg.ID || id == core.NoProcess || addr == "" || addr == t.Addr() {
		return
	}
	t.mu.Lock()
	if _, known := t.byID[id]; known {
		// Possibly the seed peer just got its identity bound; make sure
		// the addr index exists, then nothing to announce.
		t.ensurePeerLocked(id, addr)
		t.mu.Unlock()
		t.refreshPlacement()
		return
	}
	p := t.ensurePeerLocked(id, addr)
	pending := t.pendingInquiry
	t.mu.Unlock()
	if p == nil {
		return
	}
	t.cfg.Logf("nettransport %v: learned peer %v at %s", t.cfg.ID, id, addr)
	// Gossip the newcomer to everyone already known.
	var others []*link
	for _, q := range t.links.Load().peers {
		if q != &p.link {
			others = append(others, q)
		}
	}
	t.transmit(false, wire.Frame{Type: wire.FramePeers, Peers: []wire.Peer{{ID: id, Addr: addr}}}, others...)
	// Replay our in-flight join INQUIRY so the paper's "broadcast reaches
	// every present process" holds across the discovery race.
	if pending != nil && !t.active.Load() {
		t.queue(false, pending, &p.link)
	}
	t.refreshPlacement()
}

// evictPeer removes a peer its own writer has proven unreachable for
// EvictAfter. Guarded against the address having been re-registered.
func (t *Transport) evictPeer(p *peer) {
	t.mu.Lock()
	if t.byAddr[p.addr] == p {
		delete(t.byAddr, p.addr)
	}
	if p.id != core.NoProcess && t.byID[p.id] == p {
		delete(t.byID, p.id)
	}
	t.publishLinksLocked()
	t.mu.Unlock()
	t.cfg.Logf("nettransport %v: evicted unreachable peer %v at %s", t.cfg.ID, p.id, p.addr)
	p.stop()
	t.refreshPlacement()
}

// forgetPeer removes a departed process: its writer stops redialing.
func (t *Transport) forgetPeer(id core.ProcessID) {
	t.mu.Lock()
	p := t.byID[id]
	if p != nil {
		delete(t.byID, id)
		delete(t.byAddr, p.addr)
		t.publishLinksLocked()
	}
	t.mu.Unlock()
	if p != nil {
		t.cfg.Logf("nettransport %v: peer %v left", t.cfg.ID, id)
		p.stop()
		t.refreshPlacement()
	}
}

// readConn drains one connection, and runs the node on what it reads: the
// reader enters the monitor for a protocol frame and stays in it while
// whole frames are waiting in its scanner — one turn for what the remote
// flushed together — leaving before it waits for the network, and before
// any frame of the transport's own, whose handling takes t.mu and may
// bring the node work of its own. own is the outbound peer the connection
// belongs to (nil for accepted connections); accepted connections answer
// the remote's HELLO with our HELLO + address book — the only writes ever
// issued on an inbound connection, all from this goroutine. An accepted
// HELLO declaring wire.RoleClient turns the connection into a client
// session instead: all later writes to it flow through the session's own
// writer goroutine, and its operations are delivered under the session's
// pseudo-id (so the shard wrapper's FORWARD machinery serves or refuses
// them exactly as it would a relaying peer's). onDead, when set, runs
// once the connection stops being readable, so an idle writer learns its
// link died without having to write into it.
func (t *Transport) readConn(conn net.Conn, own *peer, accepted bool, onDead func()) {
	defer t.wg.Done()
	defer t.untrackConn(conn)
	defer conn.Close()
	if onDead != nil {
		defer onDead()
	}
	var sess *clientSession
	defer func() {
		if sess != nil {
			t.dropSession(sess)
		}
	}()
	// One buffered scanner per connection: header and payload reads go
	// through bufio (a batched flush from the remote surfaces as one
	// kernel read), and the payload buffer is reused across frames.
	sc := wire.NewScanner(conn)
	inTurn := false
	endTurn := func() {
		if inTurn {
			t.exit()
			inTurn = false
		}
	}
	defer endTurn()
	for {
		if !sc.HasFrame() {
			endTurn()
		}
		f, err := sc.Next()
		if err != nil {
			if !isClosedErr(err) {
				t.stats.DecodeErrors.Add(1)
				t.cfg.Logf("nettransport %v: read %s: %v", t.cfg.ID, conn.RemoteAddr(), err)
			}
			return
		}
		t.stats.FramesReceived.Add(1)
		if f.Type != wire.FrameMsg {
			endTurn()
		}
		switch f.Type {
		case wire.FrameHello:
			if accepted && f.Role == wire.RoleClient {
				if sess == nil {
					if sess = t.newClientSession(conn); sess == nil {
						return
					}
					// The handshake reply — our identity plus the placement
					// bootstrap — rides the session writer like every later
					// frame, so it can never interleave with op replies.
					t.sessionHello(sess)
				}
				continue
			}
			if own != nil && f.From != core.NoProcess {
				// The acceptor's HELLO reply on a connection we dialed:
				// bind the peer's identity.
				t.mu.Lock()
				t.ensurePeerLocked(f.From, own.addr)
				t.mu.Unlock()
			}
			t.learnPeer(f.From, f.Addr)
			if accepted {
				conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
				if err := wire.WriteFrame(conn, t.helloFrame()); err != nil {
					return
				}
				if err := wire.WriteFrame(conn, t.peersFrame()); err != nil {
					return
				}
				conn.SetWriteDeadline(time.Time{})
				t.stats.FramesSent.Add(2)
			}
		case wire.FramePeers:
			for _, p := range f.Peers {
				t.learnPeer(p.ID, p.Addr)
			}
		case wire.FrameMsg:
			if sess != nil {
				// A session may only submit FORWARDs (client operations).
				// Its From is overwritten with the session pseudo-id: the
				// shard wrapper's reply then routes back here via Send's
				// negative-id path, whatever id the client claimed.
				fm, ok := f.Msg.(core.ForwardMsg)
				if !ok {
					continue
				}
				fm.From = sess.pid
				f.From, f.Msg = sess.pid, fm
			}
			if !inTurn {
				if inTurn = t.enter(); !inTurn {
					return
				}
			}
			t.run(f.From, f.Msg, nil)
		case wire.FrameLeave:
			if sess != nil {
				continue
			}
			t.forgetPeer(f.From)
		case wire.FrameViewReq:
			if sess != nil {
				t.mu.Lock()
				vf := t.viewFrameLocked()
				t.mu.Unlock()
				t.transmit(false, vf, &sess.link)
			}
		}
	}
}

// newClientSession registers a client session for an accepted connection,
// minting its pseudo-id and starting its writer. Returns nil when the
// transport is closing.
func (t *Transport) newClientSession(conn net.Conn) *clientSession {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.sessionSeq++
	s := &clientSession{link: newLink(), pid: core.ProcessID(-t.sessionSeq)}
	t.sessions[s.pid] = s
	t.publishLinksLocked()
	// The session's writer lives exactly as long as its accepted
	// connection; closing that on the way out also unblocks the reader.
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		s.drain(t, conn, false, nil)
	}()
	return s
}

// sessionHello enqueues the handshake reply for a fresh client session:
// our HELLO (naming the serving process) and the current VIEW.
func (t *Transport) sessionHello(s *clientSession) {
	t.mu.Lock()
	vf := t.viewFrameLocked()
	t.mu.Unlock()
	t.transmit(false, t.helloFrame(), &s.link)
	t.transmit(false, vf, &s.link)
}

// dropSession unregisters a finished client session and stops its writer.
func (t *Transport) dropSession(s *clientSession) {
	t.mu.Lock()
	if t.sessions[s.pid] == s {
		delete(t.sessions, s.pid)
		t.publishLinksLocked()
	}
	t.mu.Unlock()
	s.stop()
}

// isClosedErr reports whether err is the ordinary end of a connection
// (remote closed or crashed, or we tore it down) rather than a protocol
// problem worth logging.
func isClosedErr(err error) bool {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// clientSession is the serving side of one external SDK connection: a
// link written to the accepted connection, with no dialing (a session
// lives exactly as long as its connection — reconnecting is the client's
// job, and a reconnect is a new session).
type clientSession struct {
	link
	// pid is the negative pseudo-id this session's operations are
	// delivered under; replies Sent to it route back here.
	pid core.ProcessID
}

// peer is one outbound link plus where to dial it.
type peer struct {
	link
	addr string
	// id is the peer's identity once learned (guarded by the transport's
	// mutex; NoProcess until the peer's HELLO arrives).
	id core.ProcessID
}

// run is the peer's writer goroutine: dial (with backoff), handshake,
// drain the queue, redial on error — until the peer or the transport
// stops, or the peer proves dead (dials failing for EvictAfter).
func (p *peer) run(t *Transport) {
	defer t.wg.Done()
	dialer := net.Dialer{Timeout: t.cfg.DialTimeout}
	backoff := 25 * time.Millisecond
	first := true
	var failingSince time.Time
	for {
		select {
		case <-p.quit:
			return
		case <-t.quit:
			return
		default:
		}
		conn, err := dialer.DialContext(t.ctx, "tcp", p.addr)
		if err != nil {
			if failingSince.IsZero() {
				failingSince = time.Now()
			} else if time.Since(failingSince) > t.cfg.EvictAfter {
				t.evictPeer(p)
				return
			}
			select {
			case <-p.quit:
				return
			case <-t.quit:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > 500*time.Millisecond {
				backoff = 500 * time.Millisecond
			}
			continue
		}
		failingSince = time.Time{}
		backoff = 25 * time.Millisecond
		if !first {
			t.stats.Reconnects.Add(1)
		}
		first = false
		if !t.trackConn(conn) {
			conn.Close()
			return
		}
		// The connection is full duplex: the remote's HELLO reply and any
		// traffic it pushes back arrive on this reader. The reader also
		// watches for the link dying while the writer is idle: connDead
		// unblocks drain so the redial (and eventually eviction) happens
		// even with no frame to send.
		connDead := make(chan struct{})
		t.wg.Add(1)
		go t.readConn(conn, p, false, func() { close(connDead) })
		if !p.drain(t, conn, true, connDead) {
			return
		}
	}
}
