package client

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/esyncreg"
	"churnreg/internal/nettransport"
	"churnreg/internal/placement"
	"churnreg/internal/shard"
	"churnreg/internal/sim"
)

const opTimeout = 10 * time.Second

// startCluster boots an in-process cluster of nettransport processes —
// sharded (shard.Factory-wrapped esync) when shards > 0, plain esync
// otherwise — and returns the transports, fully meshed and active. A
// process evicts a peer whose dials have failed for evictAfter (0: the
// transport's default).
func startCluster(t *testing.T, n, shards, repl int, evictAfter time.Duration) []*nettransport.Transport {
	t.Helper()
	return startClusterOf(t, esyncreg.Factory(esyncreg.Options{}), n, shards, repl, evictAfter)
}

// startClusterOf is startCluster running engine in place of esync.
func startClusterOf(t *testing.T, engine core.NodeFactory, n, shards, repl int, evictAfter time.Duration) []*nettransport.Transport {
	t.Helper()
	factory := engine
	var pcfg placement.Config
	if shards > 0 {
		factory = shard.Factory(factory)
		pcfg = placement.Config{Shards: shards, Replication: repl}
	}
	ts := make([]*nettransport.Transport, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		tr, err := nettransport.New(nettransport.Config{
			ID:         core.ProcessID(i + 1),
			ListenAddr: "127.0.0.1:0",
			N:          n,
			Delta:      sim.Duration(5),
			Tick:       time.Millisecond,
			Factory:    factory,
			Bootstrap:  true,
			Initial:    core.VersionedValue{Val: 0, SN: 0},
			Placement:  pcfg,
			EvictAfter: evictAfter,
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
	deadline := time.Now().Add(5 * time.Second)
	for _, tr := range ts {
		for tr.PeerCount() < n-1 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if tr.PeerCount() < n-1 {
			t.Fatalf("transport %v: peer count %d, want %d", tr.ID(), tr.PeerCount(), n-1)
		}
	}
	return ts
}

func dialClient(t *testing.T, ts []*nettransport.Transport, cfg Config) *Client {
	t.Helper()
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []string{ts[0].Addr()}
	}
	c, err := Dial(cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// forwardCounts sums the client operations the cluster's transports
// served and refused.
func forwardCounts(ts []*nettransport.Transport) (served, refused uint64) {
	for _, tr := range ts {
		served += tr.Stats().ForwardsServed.Load()
		refused += tr.Stats().ForwardsRefused.Load()
	}
	return served, refused
}

// TestShardedReadWrite is the tentpole's happy path: a client
// bootstrapped from one seed learns the whole membership, writes land at
// shard primaries, and reads come back from the owning replica group.
func TestShardedReadWrite(t *testing.T) {
	ts := startCluster(t, 4, 8, 3, 0)
	c := dialClient(t, ts, Config{})
	if !c.Sharded() {
		t.Fatal("client did not learn a sharded view")
	}
	if got := len(c.Members()); got != 4 {
		t.Fatalf("Members() = %d ids, want 4", got)
	}
	for key := int64(0); key < 16; key++ {
		v, err := c.Write(key, 100+key)
		if err != nil {
			t.Fatalf("write key %d: %v", key, err)
		}
		if v.Val != 100+key || v.SN != 1 {
			t.Fatalf("write key %d returned %+v, want ⟨%d,#1⟩", key, v, 100+key)
		}
	}
	// Reads are served by a member of each key's replica group — checked
	// against an independently built view (placement is deterministic in
	// the member ids, so the client and this test agree by construction).
	view := placement.Build(placement.Config{Shards: 8, Replication: 3},
		[]core.ProcessID{1, 2, 3, 4})
	for key := int64(0); key < 16; key++ {
		v, served, err := c.ReadServed(key)
		if err != nil {
			t.Fatalf("read key %d: %v", key, err)
		}
		if v.Val != 100+key {
			t.Fatalf("read key %d = %+v, want val %d", key, v, 100+key)
		}
		if !view.IsReplica(core.RegisterID(key), core.ProcessID(served)) {
			t.Fatalf("key %d served by %d, not in group %v", key, served,
				view.Group(core.RegisterID(key)))
		}
	}
}

// TestDirectRoutingSkipsForwardHop: a smart client's operations are all
// served where they arrive — every one reaches a node as a FORWARD, and
// no node refuses one as the wrong replica.
func TestDirectRoutingSkipsForwardHop(t *testing.T) {
	ts := startCluster(t, 4, 8, 3, 0)
	c := dialClient(t, ts, Config{})
	for key := int64(0); key < 32; key++ {
		if _, err := c.Write(key, key); err != nil {
			t.Fatalf("write key %d: %v", key, err)
		}
		if _, err := c.Read(key); err != nil {
			t.Fatalf("read key %d: %v", key, err)
		}
	}
	if served, refused := forwardCounts(ts); served < 64 || refused != 0 {
		t.Fatalf("ForwardsServed = %d, ForwardsRefused = %d; want >= 64 served (every client op arrives as a FORWARD) and none refused",
			served, refused)
	}
}

// TestUnshardedCluster: with placement disabled every member replicates
// every key, and the VIEW's Shards=0 tells the client to round-robin.
func TestUnshardedCluster(t *testing.T) {
	ts := startCluster(t, 3, 0, 0, 0)
	c := dialClient(t, ts, Config{})
	if c.Sharded() {
		t.Fatal("client believes an unsharded system is sharded")
	}
	for key := int64(0); key < 6; key++ {
		if _, err := c.Write(key, 7*key); err != nil {
			t.Fatalf("write key %d: %v", key, err)
		}
		v, err := c.Read(key)
		if err != nil {
			t.Fatalf("read key %d: %v", key, err)
		}
		if v.Val != 7*key {
			t.Fatalf("read key %d = %+v, want val %d", key, v, 7*key)
		}
	}
}

// TestUnshardedConcurrentWritesGetDistinctSNs: one key's sequence numbers
// are minted by one process. Concurrent writes to a key of an unsharded
// system all go to the same member, so each gets a sequence number of its
// own; spread over members, two of them could mint the same one.
func TestUnshardedConcurrentWritesGetDistinctSNs(t *testing.T) {
	ts := startCluster(t, 3, 0, 0, 0)
	c := dialClient(t, ts, Config{OpTimeout: opTimeout})
	const writers = 32
	sns := make(chan int64, writers)
	var wg sync.WaitGroup
	for i := int64(0); i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Write(0, 1000+i)
			if err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			sns <- v.SN
		}()
	}
	wg.Wait()
	close(sns)
	seen := make(map[int64]int)
	for sn := range sns {
		seen[sn]++
	}
	for sn, n := range seen {
		if n > 1 {
			t.Errorf("%d of %d writes got sn %d", n, writers, sn)
		}
	}
}

// TestUnshardedWritesFailOverOnKill: unsharded, every write goes to the
// lowest member id, so a crash of that member stops writes until the
// survivors evict it. Then the client adopts their view and writes go to
// the next-lowest id, sequence numbers still increasing.
func TestUnshardedWritesFailOverOnKill(t *testing.T) {
	const evictAfter = 300 * time.Millisecond
	ts := startCluster(t, 3, 0, 0, evictAfter)
	c := dialClient(t, ts, Config{Seeds: []string{ts[1].Addr()}, OpTimeout: 2 * time.Second})
	last, err := c.Write(0, 1)
	if err != nil {
		t.Fatalf("write before the crash: %v", err)
	}
	ts[0].Close() // process 1, the writing member, crashes: no goodbye
	deadline := time.Now().Add(evictAfter + 10*time.Second)
	for val := int64(2); val < 5; val++ {
		for {
			v, err := c.Write(0, val)
			if err == nil {
				if v.SN <= last.SN {
					t.Fatalf("write %d after the crash got sn %d, not above %d", val, v.SN, last.SN)
				}
				last = v
				break
			}
			if !errors.Is(err, ErrUnroutable) && !errors.Is(err, ErrUnacknowledged) {
				t.Fatalf("write %d after the crash: %v", val, err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("writes never recovered after the crash of process 1: %v", err)
			}
		}
	}
	if members := c.Members(); slices.Contains(members, 1) {
		t.Fatalf("Members() = %v, still lists the crashed process 1", members)
	}
	if v, err := c.Read(0); err != nil || v != last {
		t.Fatalf("read after failover = %+v, %v; want %+v", v, err, last)
	}
}

// TestStaleViewHealsOnDeparture is the deterministic staleness test: the
// client caches a view, a member leaves gracefully, and the next
// operations succeed anyway — served by the shrunken membership — with
// the cache observably refreshed.
func TestStaleViewHealsOnDeparture(t *testing.T) {
	ts := startCluster(t, 4, 8, 3, 0)
	// Seed ONLY through a survivor, so the departed node isn't the
	// client's bootstrap link.
	c := dialClient(t, ts, Config{Seeds: []string{ts[0].Addr()}, OpTimeout: 3 * time.Second})
	for key := int64(0); key < 16; key++ {
		if _, err := c.Write(key, key); err != nil {
			t.Fatalf("seed write key %d: %v", key, err)
		}
	}

	ts[3].Leave()
	// Survivors converge on the 3-member view; the leaver's shards hand
	// off to their successors.
	deadline := time.Now().Add(10 * time.Second)
	for (ts[0].PeerCount() > 2 || ts[1].PeerCount() > 2 || ts[2].PeerCount() > 2) &&
		time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	// Every key must stay writable and readable: keys whose primary left
	// force the client through refusal → view refresh → re-route.
	for key := int64(0); key < 16; key++ {
		v, err := c.Write(key, 1000+key)
		if err != nil {
			t.Fatalf("post-departure write key %d: %v", key, err)
		}
		if v.Val != 1000+key {
			t.Fatalf("post-departure write key %d returned %+v", key, v)
		}
		r, served, err := c.ReadServed(key)
		if err != nil {
			t.Fatalf("post-departure read key %d: %v", key, err)
		}
		if r.Val != 1000+key {
			t.Fatalf("post-departure read key %d = %+v, want %d", key, r, 1000+key)
		}
		if served == 4 {
			t.Fatalf("key %d served by the departed process", key)
		}
	}
	// The healed-cache signal is the member set, not the version stamp:
	// stamps are per-server counters, and the client may adopt the
	// shrunken view from a different (incomparably numbered) server.
	if got := len(c.Members()); got != 3 {
		t.Fatalf("Members() = %d ids after departure, want 3", got)
	}
	if s := c.Stats(); s.Refreshes == 0 {
		t.Fatal("client never refreshed its placement cache")
	}
}

// TestStaleViewHealsOnKill is the harsher variant: the member vanishes
// without a LEAVE (connection drop + eviction), so the client discovers
// staleness only through dead connections and refusals.
func TestStaleViewHealsOnKill(t *testing.T) {
	ts := startCluster(t, 4, 8, 3, 0)
	c := dialClient(t, ts, Config{
		Seeds:     []string{ts[0].Addr()},
		OpTimeout: 2 * time.Second,
	})
	for key := int64(0); key < 8; key++ {
		if _, err := c.Write(key, key); err != nil {
			t.Fatalf("seed write key %d: %v", key, err)
		}
	}
	ts[3].Close() // no goodbye
	deadline := time.Now().Add(20 * time.Second)
	for (ts[0].PeerCount() > 2 || ts[1].PeerCount() > 2 || ts[2].PeerCount() > 2) &&
		time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	for key := int64(0); key < 8; key++ {
		v, err := c.Read(key)
		if err != nil {
			t.Fatalf("post-kill read key %d: %v", key, err)
		}
		if v.Val != key {
			t.Fatalf("post-kill read key %d = %+v, want %d", key, v, key)
		}
	}
	if got := len(c.Members()); got != 3 {
		t.Fatalf("Members() = %d ids after kill+eviction, want 3", got)
	}
}

// TestDialAllSeedsDead: Dial fails cleanly (ErrNoView) when nothing
// answers, rather than hanging.
func TestDialAllSeedsDead(t *testing.T) {
	_, err := Dial(Config{
		Seeds:       []string{"127.0.0.1:1"},
		DialTimeout: 500 * time.Millisecond,
	})
	if !errors.Is(err, ErrNoView) {
		t.Fatalf("Dial to dead seed: err = %v, want ErrNoView", err)
	}
}

// TestConfigRejectsNoSeeds: an empty seed list is a configuration error,
// not a hang.
func TestConfigRejectsNoSeeds(t *testing.T) {
	if _, err := Dial(Config{}); err == nil {
		t.Fatal("Dial accepted an empty seed list")
	}
}
