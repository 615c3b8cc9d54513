package churnreg

import (
	"errors"
	"maps"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"churnreg/client"
	"churnreg/internal/core"
	"churnreg/internal/esyncreg"
	"churnreg/internal/nettransport"
	"churnreg/internal/shard"
)

// TestNetClusterEndToEnd drives the TCP-backed cluster through the same
// journey the quickstart takes on the simulator: write, read everywhere,
// batch, join (the joiner must have learned every key), graceful leave
// (the departed process serves nothing more), crash, and writer failover.
func TestNetClusterEndToEnd(t *testing.T) {
	c, err := NewNetCluster(
		WithN(3),
		WithProtocol(EventuallySynchronous),
		WithDelta(5),
		WithTick(time.Millisecond),
		WithOperationTimeout(15*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Write(41); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := c.WriteBatch(map[RegisterID]int64{1: 10, 2: 20}); err != nil {
		t.Fatalf("write batch: %v", err)
	}
	for _, id := range c.IDs() {
		v, err := c.ReadKeyAt(id, 2)
		if err != nil {
			t.Fatalf("read key 2 at %v: %v", id, err)
		}
		if v != 20 {
			t.Fatalf("read key 2 at %v = %d, want 20", id, v)
		}
	}

	joined, err := c.Join()
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	v, err := c.ReadKeyAt(joined, 1)
	if err != nil {
		t.Fatalf("read at joiner: %v", err)
	}
	if v != 10 {
		t.Fatalf("joiner read key 1 = %d, want 10 (snapshot join must cover every key)", v)
	}

	// Graceful departure of a non-writer, then a crash of the writer:
	// WriteKey adopts a successor and the system keeps serving.
	if err := c.Leave(joined); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if _, err := c.ReadKeyAt(joined, 1); !errors.Is(err, ErrNoActiveProcess) {
		t.Fatalf("read at departed process = %v, want ErrNoActiveProcess", err)
	}
	writer := c.WriterID()
	if err := c.Kill(writer); err != nil {
		t.Fatalf("kill writer: %v", err)
	}
	if err := c.Write(99); err != nil {
		t.Fatalf("write after writer crash: %v", err)
	}
	got, err := c.Read()
	if err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	if got != 99 {
		t.Fatalf("read after failover = %d, want 99", got)
	}
	if c.Size() != 2 {
		t.Fatalf("size = %d, want 2", c.Size())
	}
}

// TestNewNetClusterReturnsWithViews: the moment NewNetCluster returns,
// every process routes over all n bootstrap processes — sharded, its
// shard wrapper has adopted a view of n members; unsharded, its transport
// knows n-1 peers — so the first write goes to the primary every process
// agrees on. Ten constructions of each, because the views are published
// from goroutines.
func TestNewNetClusterReturnsWithViews(t *testing.T) {
	const n = 4
	for _, shards := range []int{0, 4} {
		for i := 0; i < 10; i++ {
			opts := []Option{WithN(n), WithProtocol(EventuallySynchronous), WithDelta(40), WithTick(time.Millisecond)}
			if shards > 0 {
				opts = append(opts, WithShards(shards, 3))
			}
			c, err := NewNetCluster(opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range c.IDs() {
				tr, _ := c.get(id)
				if shards == 0 {
					if got := tr.PeerCount(); got != n-1 {
						t.Fatalf("unsharded: process %v knows %d peers at return, want %d", id, got, n-1)
					}
					continue
				}
				members := -1
				if err := tr.Invoke(func(node core.Node) {
					if v := node.(*shard.Node).Placement(); v != nil {
						members = len(v.Members())
					}
				}); err != nil {
					t.Fatal(err)
				}
				if members != n {
					t.Fatalf("sharded: process %v's wrapper has a view of %d members at return, want %d", id, members, n)
				}
			}
			c.Close()
		}
	}
}

// TestNetClusterSyncProtocol runs the synchronous protocol over TCP with
// a δ budget generous enough for loopback sockets plus timer slop.
func TestNetClusterSyncProtocol(t *testing.T) {
	c, err := NewNetCluster(
		WithN(3),
		WithProtocol(Synchronous),
		WithDelta(40),
		WithTick(time.Millisecond),
		WithOperationTimeout(15*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(7); err != nil {
		t.Fatalf("write: %v", err)
	}
	for _, id := range c.IDs() {
		v, err := c.ReadAt(id)
		if err != nil {
			t.Fatalf("read at %v: %v", id, err)
		}
		if v != 7 {
			t.Fatalf("read at %v = %d, want 7", id, v)
		}
	}
}

// TestNetClusterSharded drives the sharded keyspace over real TCP: R=2
// of N=4, many keys, reads at every node (a replica returns the value;
// under the synchronous protocol a non-replica refuses with
// ErrUnroutable), a join that triggers shard handoff, and a graceful
// leave that reshuffles placement.
func TestNetClusterSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster; skipped in -short")
	}
	c, err := NewNetCluster(
		WithN(4),
		WithProtocol(Synchronous),
		WithDelta(40),
		WithTick(time.Millisecond),
		WithShards(8, 2),
		WithOperationTimeout(20*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const nKeys = 10
	for k := RegisterID(0); k < nKeys; k++ {
		if err := c.WriteKey(k, int64(500+k)); err != nil {
			t.Fatalf("write %v: %v", k, err)
		}
	}
	time.Sleep(200 * time.Millisecond) // > δ: scoped broadcasts settled
	// readEverywhere reads every key at every node: its replicas return
	// want(k), every other node refuses.
	readEverywhere := func(phase string, want func(RegisterID) int64) {
		t.Helper()
		view, refused := c.view(c.IDs()), 0
		for _, id := range c.IDs() {
			for k := RegisterID(0); k < nKeys; k++ {
				v, err := c.ReadKeyAt(id, k)
				switch {
				case !view.IsReplica(k, id):
					if !errors.Is(err, core.ErrUnroutable) {
						t.Fatalf("%s read %v at non-replica %v = %d, %v; want ErrUnroutable", phase, k, id, v, err)
					}
					refused++
				case err != nil:
					t.Fatalf("%s read %v at %v: %v", phase, k, id, err)
				case v != want(k):
					t.Fatalf("%s read %v at %v = %d, want %d", phase, k, id, v, want(k))
				}
			}
		}
		if refused == 0 {
			t.Fatalf("%s: no node was outside any key's group", phase)
		}
	}
	readEverywhere("first", func(k RegisterID) int64 { return int64(500 + k) })

	// Join: the newcomer gains shards, hands off state, and must then
	// serve every key it replicates and refuse the rest.
	joined, err := c.Join()
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for k := RegisterID(0); k < nKeys; k++ {
		for {
			replica := c.view(c.IDs()).IsReplica(k, joined)
			v, err := c.ReadKeyAt(joined, k)
			if replica && err == nil && v == int64(500+k) || !replica && errors.Is(err, core.ErrUnroutable) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("joiner (replica: %v) never settled on key %v: v=%d err=%v", replica, k, v, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Graceful leave reshuffles placement; writes and reads keep working.
	victim := c.IDs()[len(c.IDs())-2]
	if victim == c.WriterID() {
		victim = c.IDs()[len(c.IDs())-1]
	}
	if err := c.Leave(victim); err != nil {
		t.Fatalf("leave: %v", err)
	}
	time.Sleep(300 * time.Millisecond)
	for k := RegisterID(0); k < nKeys; k++ {
		if err := c.WriteKey(k, int64(900+k)); err != nil {
			t.Fatalf("post-leave write %v: %v", k, err)
		}
	}
	time.Sleep(200 * time.Millisecond)
	readEverywhere("post-leave", func(k RegisterID) int64 { return int64(900 + k) })
}

// TestNetClusterJoinEntersViewsWhenActive: under a sharded sync
// NetCluster, a joiner enters the placement views, and a wire client's
// view, when its join returns, not before. While it joins it is absent
// from every transport's Placement().Members() and from the client's
// Members(), so the client, reading and writing throughout, never sends
// it an operation it would refuse NOT_ACTIVE; within one handoff retry
// round (3δ) of WaitActive returning it is in all of them.
func TestNetClusterJoinEntersViewsWhenActive(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster; skipped in -short")
	}
	const delta = 40
	c, err := NewNetCluster(
		WithN(3),
		WithProtocol(Synchronous),
		WithDelta(delta),
		WithTick(time.Millisecond),
		WithShards(8, 2),
		WithOperationTimeout(20*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	transports := func() map[ProcessID]*nettransport.Transport {
		c.mu.Lock()
		defer c.mu.Unlock()
		return maps.Clone(c.nodes)
	}
	var seeds []string
	for _, tr := range transports() {
		seeds = append(seeds, tr.Addr())
	}
	cl, err := client.Dial(client.Config{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stop := make(chan struct{})
	var load sync.WaitGroup
	load.Add(1)
	go func() {
		defer load.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := cl.Write(i%16, i); err != nil {
				t.Errorf("client write %d: %v", i, err)
			}
			if _, err := cl.Read(i % 16); err != nil {
				t.Errorf("client read %d: %v", i, err)
			}
		}
	}()
	defer func() {
		close(stop)
		load.Wait()
	}()

	type joined struct {
		id  ProcessID
		err error
	}
	done := make(chan joined, 1)
	go func() {
		id, err := c.Join()
		done <- joined{id, err}
	}()
	const j = ProcessID(4)
	holds := func(ids []ProcessID) bool { return slices.Contains(ids, j) }
	var j4 *nettransport.Transport
	samples := 0
	var result joined
	for result.id == NoProcess {
		select {
		case result = <-done:
			continue
		default:
		}
		trs := transports()
		if j4 == nil {
			j4 = trs[j]
		}
		// Read the views first and J's activity after: activity never
		// reverts, so a J still joining now was joining when they were read.
		var views [][]ProcessID
		for _, tr := range trs {
			views = append(views, members(tr))
		}
		views = append(views, toIDs(cl.Members()))
		var refused uint64
		if j4 != nil {
			refused = j4.Stats().ForwardsRefused.Load()
		}
		if j4 == nil || j4.Active() {
			time.Sleep(time.Millisecond)
			continue
		}
		samples++
		if slices.ContainsFunc(views, holds) {
			t.Fatalf("joining process %v is in a view: %v", j, views)
		}
		if refused != 0 {
			t.Fatalf("joining process %v refused %d client operations", j, refused)
		}
		time.Sleep(time.Millisecond)
	}
	if result.err != nil || result.id != j {
		t.Fatalf("join = %v, %v; want %v", result.id, result.err, j)
	}
	if samples == 0 {
		t.Fatal("no sample taken while the process joined")
	}
	deadline := time.Now().Add(3 * delta * time.Millisecond)
	for {
		var views [][]ProcessID
		for _, tr := range transports() {
			views = append(views, members(tr))
		}
		views = append(views, toIDs(cl.Members()))
		if !slices.ContainsFunc(views, func(ids []ProcessID) bool { return !holds(ids) }) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("3δ after the join returned, %v is missing from a view: %v", j, views)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("%d samples while joining", samples)
}

// members lists tr's placement members, none before its first view.
func members(tr *nettransport.Transport) []ProcessID {
	if v := tr.Placement(); v != nil {
		return v.Members()
	}
	return nil
}

// toIDs converts a client's member list to process ids.
func toIDs(ids []int64) []ProcessID {
	out := make([]ProcessID, len(ids))
	for i, id := range ids {
		out[i] = ProcessID(id)
	}
	return out
}

// TestNetClusterWriterFailover crashes the designated writer under the
// synchronous protocol: the next Write must fail over to a successor that
// already holds write #1 (the failover settle wait).
func TestNetClusterWriterFailover(t *testing.T) {
	c, err := NewNetCluster(
		WithN(5),
		WithDelta(20),
		WithProtocol(Synchronous),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(c.WriterID()); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(2); err != nil {
		t.Fatalf("write after writer loss: %v", err)
	}
	// Under load, real delays can exceed the synchronous protocol's δ
	// budget; the WRITE still arrives eventually — poll for it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := c.Read()
		if err != nil {
			t.Fatal(err)
		}
		if v == 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("read %d, want 2", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNetClusterConcurrentReaders fires several reads at every process at
// once; each pipelines as its own operation and returns the written value.
func TestNetClusterConcurrentReaders(t *testing.T) {
	c, err := NewNetCluster(
		WithN(5),
		WithDelta(20),
		WithTick(time.Millisecond),
		WithProtocol(EventuallySynchronous),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(7); err != nil {
		t.Fatal(err)
	}
	ids := c.IDs()
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(ids))
	for g := 0; g < 4; g++ {
		for _, id := range ids {
			wg.Add(1)
			go func(id ProcessID) {
				defer wg.Done()
				v, err := c.ReadAt(id)
				if err == nil && v != 7 {
					err = errors.New("stale concurrent read")
				}
				if err != nil {
					errs <- err
				}
			}(id)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestNetKeyedNamespaceUnderChurn is the real-time twin of the simulator's
// keyed-namespace tests: 64 keys written while processes crash and join,
// then a fresh joiner serves every key after its one join, having
// broadcast exactly one INQUIRY for the whole namespace.
func TestNetKeyedNamespaceUnderChurn(t *testing.T) {
	c, err := NewNetCluster(
		WithN(7),
		WithDelta(10),
		WithTick(time.Millisecond),
		WithProtocol(EventuallySynchronous),
		WithOperationTimeout(20*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Populate all 64 keys, churning one process per 16 keys: each
	// crash+join forces a newcomer to recover the namespace state
	// through its single join.
	for k := 0; k < keyedTestKeys; k++ {
		if err := c.WriteKey(RegisterID(k), int64(100+k)); err != nil {
			t.Fatalf("write key %d: %v", k, err)
		}
		if k%16 == 15 {
			ids := c.IDs()
			victim := ids[0]
			if victim == c.WriterID() {
				victim = ids[1]
			}
			if err := c.Kill(victim); err != nil {
				t.Fatalf("kill: %v", err)
			}
			if _, err := c.Join(); err != nil {
				t.Fatalf("join: %v", err)
			}
		}
	}

	id, err := c.Join()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keyedTestKeys; k++ {
		v, err := c.ReadKeyAt(id, RegisterID(k))
		if err != nil {
			t.Fatalf("joiner read key %d: %v", k, err)
		}
		if v != int64(100+k) {
			t.Fatalf("joiner key %d = %d, want %d", k, v, 100+k)
		}
	}
	tr, err := c.get(id)
	if err != nil {
		t.Fatal(err)
	}
	var inquiries uint64
	if err := tr.Invoke(func(n core.Node) {
		inquiries = n.(*esyncreg.Node).Stats().JoinInquiries
	}); err != nil {
		t.Fatal(err)
	}
	if inquiries != 1 {
		t.Fatalf("joiner sent %d join inquiries for %d keys, want exactly 1", inquiries, keyedTestKeys)
	}
}

// TestNetClusterCloseLeavesNoGoroutines drives a cluster through a write,
// a read, a join and a crash, closes it twice, and requires the goroutine
// count to return to baseline.
func TestNetClusterCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	c, err := NewNetCluster(
		WithN(5),
		WithDelta(20),
		WithProtocol(EventuallySynchronous),
		WithOperationTimeout(10*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	ids := c.IDs()
	if err := c.WriteKeyAt(ids[0], 3, 9); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := c.ReadKeyAt(ids[1], 3); err != nil {
		t.Fatalf("read: %v", err)
	}
	if _, err := c.Join(); err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := c.Kill(ids[2]); err != nil {
		t.Fatalf("kill: %v", err)
	}
	c.Close()
	c.Close() // idempotent

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Fatalf("goroutine leak after Close: %d goroutines, baseline %d\n%s",
		runtime.NumGoroutine(), base, buf)
}

// TestNetClusterKillSuppressesProcess crashes a process under the
// synchronous protocol: it is gone for good (a second Kill and a read at
// it fail), and the survivors keep serving writes.
func TestNetClusterKillSuppressesProcess(t *testing.T) {
	c, err := NewNetCluster(
		WithN(5),
		WithDelta(20),
		WithProtocol(Synchronous),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids := c.IDs()
	victim := ids[0]
	if victim == c.WriterID() {
		victim = ids[1]
	}
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 4 {
		t.Fatalf("size = %d, want 4", c.Size())
	}
	if err := c.Kill(victim); !errors.Is(err, ErrNoActiveProcess) {
		t.Fatalf("second kill = %v, want ErrNoActiveProcess", err)
	}
	if _, err := c.ReadAt(victim); !errors.Is(err, ErrNoActiveProcess) {
		t.Fatalf("read at killed process = %v, want ErrNoActiveProcess", err)
	}
	if err := c.Write(5); err != nil {
		t.Fatalf("write after kill: %v", err)
	}
}

// TestNetClusterCloseIsIdempotentAndStopsOps closes a cluster twice; after
// that neither a join nor a read at a former member succeeds.
func TestNetClusterCloseIsIdempotentAndStopsOps(t *testing.T) {
	c, err := NewNetCluster(
		WithN(5),
		WithDelta(20),
		WithProtocol(Synchronous),
	)
	if err != nil {
		t.Fatal(err)
	}
	ids := c.IDs()
	c.Close()
	c.Close()
	if _, err := c.Join(); !errors.Is(err, ErrNoActiveProcess) {
		t.Fatalf("join after close = %v, want ErrNoActiveProcess", err)
	}
	if _, err := c.ReadAt(ids[0]); !errors.Is(err, ErrNoActiveProcess) {
		t.Fatalf("read after close = %v, want ErrNoActiveProcess", err)
	}
}
