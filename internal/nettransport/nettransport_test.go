package nettransport

import (
	"slices"
	"sync"
	"testing"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/esyncreg"
	"churnreg/internal/placement"
	"churnreg/internal/sim"
	"churnreg/internal/syncreg"
	"churnreg/internal/wire"
)

const opTimeout = 10 * time.Second

// startCluster boots n bootstrap transports on ephemeral localhost ports,
// fully meshed by seeding each with the others' addresses.
func startCluster(t *testing.T, n int, factory core.NodeFactory, delta sim.Duration) []*Transport {
	t.Helper()
	ts := make([]*Transport, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		tr, err := New(Config{
			ID:         core.ProcessID(i + 1),
			ListenAddr: "127.0.0.1:0",
			N:          n,
			Delta:      delta,
			Tick:       time.Millisecond,
			Factory:    factory,
			Bootstrap:  true,
			Initial:    core.VersionedValue{Val: 0, SN: 0},
		})
		if err != nil {
			t.Fatalf("New(%d): %v", i, err)
		}
		ts[i] = tr
		addrs[i] = tr.Addr()
	}
	for i, tr := range ts {
		seeds := make([]string, 0, n-1)
		for j, a := range addrs {
			if j != i {
				seeds = append(seeds, a)
			}
		}
		tr.Start(seeds)
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			tr.Close()
		}
	})
	return ts
}

func waitPeerCount(t *testing.T, tr *Transport, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if tr.PeerCount() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("transport %v: peer count %d, want >= %d", tr.ID(), tr.PeerCount(), want)
}

func TestSyncWriteReadOverTCP(t *testing.T) {
	ts := startCluster(t, 3, syncreg.Factory(syncreg.Options{}), 40)
	for _, tr := range ts {
		waitPeerCount(t, tr, 2)
	}
	if _, err := ts[0].WriteKey(core.DefaultRegister, 42, opTimeout); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The write returned after δ; every process holds the value.
	for i, tr := range ts {
		v, err := tr.ReadKey(core.DefaultRegister, opTimeout)
		if err != nil {
			t.Fatalf("read at %d: %v", i, err)
		}
		if v.Val != 42 || v.SN != 1 {
			t.Fatalf("read at %d: got %v, want ⟨42,#1⟩", i, v)
		}
	}
}

func TestESyncQuorumOpsOverTCP(t *testing.T) {
	ts := startCluster(t, 3, esyncreg.Factory(esyncreg.Options{}), 5)
	for _, tr := range ts {
		waitPeerCount(t, tr, 2)
	}
	for i := 1; i <= 5; i++ {
		if _, err := ts[0].WriteKey(7, core.Value(100+i), opTimeout); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	v, err := ts[2].ReadKey(7, opTimeout)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if v.Val != 105 || v.SN != 5 {
		t.Fatalf("read got %v, want ⟨105,#5⟩", v)
	}
}

// TestJoinByDialing covers the tentpole's join path: a fresh transport
// given only seed addresses completes the paper's join protocol over TCP
// and then serves reads with the learned state.
func TestJoinByDialing(t *testing.T) {
	for _, proto := range []struct {
		name    string
		factory core.NodeFactory
		delta   sim.Duration
	}{
		{"sync", syncreg.Factory(syncreg.Options{}), 40},
		{"esync", esyncreg.Factory(esyncreg.Options{}), 5},
	} {
		t.Run(proto.name, func(t *testing.T) {
			ts := startCluster(t, 3, proto.factory, proto.delta)
			for _, tr := range ts {
				waitPeerCount(t, tr, 2)
			}
			if _, err := ts[0].WriteKey(core.DefaultRegister, 7, opTimeout); err != nil {
				t.Fatalf("write: %v", err)
			}
			if _, err := ts[0].WriteKey(33, 99, opTimeout); err != nil {
				t.Fatalf("write key 33: %v", err)
			}
			joiner, err := New(Config{
				ID:         4,
				ListenAddr: "127.0.0.1:0",
				N:          3,
				Delta:      proto.delta,
				Tick:       time.Millisecond,
				Factory:    proto.factory,
			})
			if err != nil {
				t.Fatalf("New joiner: %v", err)
			}
			defer joiner.Close()
			joiner.Start([]string{ts[0].Addr(), ts[1].Addr()})
			if err := joiner.WaitActive(opTimeout); err != nil {
				t.Fatalf("joiner never became active: %v", err)
			}
			v, err := joiner.ReadKey(core.DefaultRegister, opTimeout)
			if err != nil {
				t.Fatalf("joiner read: %v", err)
			}
			if v.Val != 7 {
				t.Fatalf("joiner read %v, want value 7", v)
			}
			// The join's one snapshot inquiry covered every key.
			v, err = joiner.ReadKey(33, opTimeout)
			if err != nil {
				t.Fatalf("joiner read key 33: %v", err)
			}
			if v.Val != 99 {
				t.Fatalf("joiner read key 33 = %v, want value 99", v)
			}
			// The joiner is dialable in turn: the gossip taught node 2 its
			// address even though the joiner never dialed it.
			waitPeerCount(t, ts[2], 3)
		})
	}
}

// TestGracefulLeaveRemovesPeer verifies LEAVE prunes the address book so
// nobody redials a departed process.
func TestGracefulLeaveRemovesPeer(t *testing.T) {
	ts := startCluster(t, 3, esyncreg.Factory(esyncreg.Options{}), 5)
	for _, tr := range ts {
		waitPeerCount(t, tr, 2)
	}
	ts[2].Leave()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ts[0].PeerCount() == 1 && ts[1].PeerCount() == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("peer books not pruned after leave: %d, %d", ts[0].PeerCount(), ts[1].PeerCount())
}

// TestCrashedPeerIsEvicted covers the no-LEAVE departure path: a peer
// that crashes (abrupt Close, nothing announced) must eventually fall out
// of survivors' address books instead of being redialed forever.
func TestCrashedPeerIsEvicted(t *testing.T) {
	factory := esyncreg.Factory(esyncreg.Options{})
	mk := func(id core.ProcessID) *Transport {
		tr, err := New(Config{
			ID: id, ListenAddr: "127.0.0.1:0", N: 2, Delta: 5,
			Tick: time.Millisecond, Factory: factory, Bootstrap: true,
			EvictAfter: 300 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := mk(1), mk(2)
	defer a.Close()
	a.Start([]string{b.Addr()})
	b.Start([]string{a.Addr()})
	waitPeerCount(t, a, 1)
	b.Close() // crash: no LEAVE frame
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if a.PeerCount() == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("crashed peer never evicted: %d peers", a.PeerCount())
}

// TestSendToSelfLoopsBack pins the loopback contract the quorum protocols
// depend on (a node counts its own reply).
func TestSendToSelfLoopsBack(t *testing.T) {
	ts := startCluster(t, 1, esyncreg.Factory(esyncreg.Options{}), 5)
	// n=1: the majority is 1, satisfied purely by the node's own reply —
	// the operation only completes if self-send loops back.
	if _, err := ts[0].WriteKey(0, 5, opTimeout); err != nil {
		t.Fatalf("write: %v", err)
	}
	v, err := ts[0].ReadKey(0, opTimeout)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if v.Val != 5 {
		t.Fatalf("read %v, want 5", v)
	}
}

// viewProbe is a node that keeps the view its last PlacementChanged
// handed it, as the shard wrapper does, and counts the turns in which
// Env.Placement, which the protocol engines read, returns another, and
// the views handed to it older than the one it holds.
type viewProbe struct {
	env        core.Env
	seen       *placement.View
	torn, back int
}

func (p *viewProbe) Start()                               {}
func (p *viewProbe) Deliver(core.ProcessID, core.Message) {}
func (p *viewProbe) Active() bool                         { return true }
func (p *viewProbe) Snapshot() core.VersionedValue        { return core.Bottom() }
func (p *viewProbe) PlacementChanged(v *placement.View) {
	if p.seen != nil && v.ViewVersion() < p.seen.ViewVersion() {
		p.back++
	}
	p.seen = v
}
func (p *viewProbe) check() {
	if placement.Of(p.env) != p.seen {
		p.torn++
	}
}

// TestPlacementPublishedInTheTurnThatAdoptsIt: a new view reaches
// Env.Placement in the same turn as the node's PlacementChanged. Were it
// published first, an operation entering in between would find the
// engine and the shard wrapper on different views: a synchronous read at
// a node that has just gained a shard would pass the wrapper, which does
// not yet hold the shard as pending, and serve the engine's local copy,
// which never received the key's earlier writes. Two goroutines rebuild
// the view at once, so a turn may find a newer view already adopted; it
// must not go back to its own.
func TestPlacementPublishedInTheTurnThatAdoptsIt(t *testing.T) {
	var probe *viewProbe
	tr, err := New(Config{
		ID:         1,
		ListenAddr: "127.0.0.1:0",
		N:          3,
		Delta:      5,
		Tick:       time.Millisecond,
		Factory: func(env core.Env, _ core.SpawnContext) core.Node {
			probe = &viewProbe{env: env}
			return probe
		},
		Bootstrap: true,
		Placement: placement.Config{Shards: 4, Replication: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const refreshers, refreshes = 2, 1000
	var wg sync.WaitGroup
	for range refreshers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range refreshes {
				tr.refreshPlacement(false)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	check := func(core.Node) { probe.check() }
	turns := 0
	for running := true; running; turns++ {
		select {
		case <-done:
			running = false
		default:
		}
		tr.Invoke(check)
	}
	var torn, back int
	var last uint64
	tr.Invoke(func(core.Node) { torn, back, last = probe.torn, probe.back, probe.seen.ViewVersion() })
	if torn != 0 {
		t.Fatalf("%d of %d turns saw Env.Placement differ from the view PlacementChanged adopted", torn, turns)
	}
	if back != 0 || last != refreshers*refreshes {
		t.Fatalf("%d views adopted out of order, and the last is %d; want none, and %d", back, last, refreshers*refreshes)
	}
}

// TestViewCountsActiveProcessesOnly: a sharded transport builds its view
// over the processes it knows to be active. A joiner that knows no active
// process has an empty view, never nil, that routes nowhere; a peer enters
// the view once an entry says it is active, and a later entry saying
// otherwise does not take it out; the transport counts itself once its own
// MarkActive has run, which also queues a PEERS frame naming it active on
// every peer link.
func TestViewCountsActiveProcessesOnly(t *testing.T) {
	var probe *viewProbe
	tr, err := New(Config{
		ID: 1, ListenAddr: "127.0.0.1:0", N: 3, Delta: 5, Tick: time.Millisecond,
		Factory: func(env core.Env, _ core.SpawnContext) core.Node {
			probe = &viewProbe{env: env}
			return probe
		},
		Placement: placement.Config{Shards: 4, Replication: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	members := func(step string, want ...core.ProcessID) {
		t.Helper()
		var got []core.ProcessID
		tr.Invoke(func(core.Node) { got = probe.seen.Members() })
		if !slices.Equal(got, want) || !slices.Equal(tr.Placement().Members(), want) {
			t.Fatalf("%s: members %v, want %v", step, got, want)
		}
	}
	tr.refreshPlacement(false)
	members("no active process")
	if id := tr.Placement().Route(nil, 3, 0); id != core.NoProcess {
		t.Fatalf("the empty view routes to %v", id)
	}
	const addr = "127.0.0.1:1" // nothing listens: frames stay queued
	tr.learnPeer(2, addr, false)
	members("a joining peer")
	tr.learnPeer(2, addr, true)
	members("the peer active", 2)
	tr.learnPeer(2, addr, false)
	members("a stale entry", 2)
	if err := tr.Invoke(func(core.Node) { probe.env.MarkActive() }); err != nil {
		t.Fatal(err)
	}
	members("after MarkActive", 1, 2)
	l := tr.links.Load().byID[2]
	l.mu.Lock()
	frames := scanAll(t, l.buf)
	l.mu.Unlock()
	if len(frames) != 1 || frames[0].Type != wire.FramePeers || !slices.Equal(frames[0].Peers, []wire.Peer{{ID: 1, Addr: tr.Addr(), Active: true}}) {
		t.Fatalf("queued for peer 2: %+v; want one PEERS naming process 1 active", frames)
	}
}
