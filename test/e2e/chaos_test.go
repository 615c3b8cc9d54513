package e2e

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/sim"
	"churnreg/internal/spec"
)

// TestE2EBasic is the fast sanity path: a three-process cluster over real
// sockets serves writes, batched writes, and reads from every node.
func TestE2EBasic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs OS processes; skipped in -short")
	}
	n1 := mustStartNode(t, 1, "sync", 3, 60, "1ms", true, nil)
	n2 := mustStartNode(t, 2, "sync", 3, 60, "1ms", true, []string{n1.listen})
	n3 := mustStartNode(t, 3, "sync", 3, 60, "1ms", true, []string{n1.listen, n2.listen})
	for _, nd := range []*node{n1, n2, n3} {
		mustHealthy(t, nd, 2, 10*time.Second)
	}
	if _, err := n1.write(0, 42); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := n1.writeBatch(map[int64]int64{1: 10, 2: 20}); err != nil {
		t.Fatalf("writebatch: %v", err)
	}
	time.Sleep(200 * time.Millisecond) // > δ: the broadcast has settled
	for _, nd := range []*node{n1, n2, n3} {
		for key, want := range map[int64]int64{0: 42, 1: 10, 2: 20} {
			r, err := nd.read(key)
			if err != nil {
				t.Fatalf("read key %d at node %d: %v", key, nd.id, err)
			}
			if r.Val != want {
				t.Fatalf("read key %d at node %d = %d, want %d", key, nd.id, r.Val, want)
			}
		}
	}
}

// chaosConfig parameterizes one chaos run.
type chaosConfig struct {
	protocol string
	delta    int64
	tick     string
	duration time.Duration
	// inflight is the number of concurrent writer clients (0 or 1 = the
	// historical sequential writer). All of them write through node 1, so
	// the per-key cross-process discipline holds while the node itself
	// pipelines their operations — including several on one key at once.
	inflight int
}

// TestE2EChaosPipelined is the inflight=8 regression: eight concurrent
// writer clients pipeline through node 1 (multiple in-flight writes on
// one key included) under the full churn schedule, and per-key
// regularity must still hold from the client-observed history.
func TestE2EChaosPipelined(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs OS processes; skipped in -short")
	}
	cfg := chaosConfig{protocol: "esync", delta: 5, tick: "1ms", duration: 4 * time.Second, inflight: 8}
	runChaos(t, cfg, 7) // pinned regression seed
}

// TestE2EChaosCoalesced is the deep-pipeline regression for the frame-
// coalescing write path: 128 concurrent writer clients keep node 1's
// per-peer queues persistently deep, so nearly every quorum broadcast
// leaves in a multi-frame batched write — while the schedule still kills,
// replaces and reconnects processes mid-traffic (batches dying with their
// connections, inflight requeues, HELLO-before-batch ordering all
// exercised over real sockets, under -race in CI). Per-key regularity
// from the client-observed history is the verdict, as everywhere.
func TestE2EChaosCoalesced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs OS processes; skipped in -short")
	}
	cfg := chaosConfig{protocol: "esync", delta: 5, tick: "1ms", duration: 4 * time.Second, inflight: 128}
	runChaos(t, cfg, 7) // pinned regression seed
}

// TestE2EChaos is the acceptance suite: ≥3 regserve OS processes on
// random ports run a seeded chaos schedule — concurrent reads, writes and
// multi-key batches, plus a process join, a graceful departure, and a
// kill-and-replace, all mid-traffic — and the client-observed histories
// must be regular on every key. -chaos.inflight raises the writer
// concurrency (default 1 keeps the historical seeds' schedules stable);
// TestE2EChaosPipelined pins the inflight=8 regression.
func TestE2EChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs OS processes; skipped in -short")
	}
	configs := []chaosConfig{
		{protocol: "sync", delta: 60, tick: "1ms", duration: 4 * time.Second, inflight: *chaosInflight},
		{protocol: "esync", delta: 5, tick: "1ms", duration: 4 * time.Second, inflight: *chaosInflight},
	}
	for _, cfg := range configs {
		for _, seed := range seedsToRun() {
			t.Run(fmt.Sprintf("%s/seed=%d", cfg.protocol, seed), func(t *testing.T) {
				runChaos(t, cfg, seed)
			})
		}
	}
}

// aliveSet tracks which nodes traffic may target.
type aliveSet struct {
	mu    sync.Mutex
	nodes []*node
}

func (a *aliveSet) add(n *node) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nodes = append(a.nodes, n)
}

func (a *aliveSet) remove(n *node) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, x := range a.nodes {
		if x == n {
			a.nodes = append(a.nodes[:i], a.nodes[i+1:]...)
			return
		}
	}
}

// pickNot draws a random alive node other than excl (nil if none).
func (a *aliveSet) pickNot(rng *rand.Rand, excl *node) *node {
	a.mu.Lock()
	defer a.mu.Unlock()
	candidates := make([]*node, 0, len(a.nodes))
	for _, n := range a.nodes {
		if n != excl {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[rng.Intn(len(candidates))]
}

func (a *aliveSet) snapshot() []*node {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*node(nil), a.nodes...)
}

func runChaos(t *testing.T, cfg chaosConfig, seed int64) {
	const nKeys = 5
	start := time.Now()
	now := func() sim.Time { return sim.Time(time.Since(start).Microseconds()) }

	// History of client-observed operations; the checker's verdict is the
	// test's verdict. Client intervals enclose the true operation
	// intervals, so widening only ADDS allowed values — the check is
	// sound (no false violations), just slightly lenient at the edges.
	history := spec.NewHistory(core.VersionedValue{Val: 0, SN: 0})
	var hmu sync.Mutex

	// Three bootstrap processes; node 1 is the designated writer for the
	// whole run (the paper's single-writer discipline, per key), so the
	// schedule may remove nodes 2 and 3 but never node 1.
	n1 := mustStartNode(t, 1, cfg.protocol, 3, cfg.delta, cfg.tick, true, nil)
	n2 := mustStartNode(t, 2, cfg.protocol, 3, cfg.delta, cfg.tick, true, []string{n1.listen})
	n3 := mustStartNode(t, 3, cfg.protocol, 3, cfg.delta, cfg.tick, true, []string{n1.listen, n2.listen})
	for _, nd := range []*node{n1, n2, n3} {
		mustHealthy(t, nd, 2, 10*time.Second)
	}
	alive := &aliveSet{}
	for _, nd := range []*node{n1, n2, n3} {
		alive.add(nd)
	}

	var (
		stop           atomic.Bool
		wg             sync.WaitGroup
		writesDone     atomic.Uint64
		readsDone      atomic.Uint64
		readsAbandoned atomic.Uint64
		batchesDone    atomic.Uint64
	)

	// Writers: all writes flow through node 1 — the paper's per-key
	// discipline across processes holds by construction — while the node
	// pipelines however many of them are in flight (cfg.inflight workers;
	// with one worker no key ever has concurrent writes, the historical
	// schedule). Values are unique per operation across workers, and the
	// server reports each write's own assigned sn, so the history stays
	// exact under pipelining.
	writers := cfg.inflight
	if writers < 1 {
		writers = 1
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(worker int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + worker))
			counter := int64(0)
			for !stop.Load() {
				counter++
				val := seed*100_000_000 + worker*1_000_000 + counter
				if worker == 0 && rng.Intn(5) == 0 {
					// Multi-key batch: 2-3 distinct keys, one client call.
					kvs := map[int64]int64{}
					for len(kvs) < 2+rng.Intn(2) {
						kvs[rng.Int63n(nKeys)] = val + int64(len(kvs))*1000
					}
					ops := map[int64]*spec.Op{}
					hmu.Lock()
					for k := range kvs {
						ops[k] = history.BeginWriteKey(1, core.RegisterID(k), now())
					}
					hmu.Unlock()
					res, err := n1.writeBatch(kvs)
					end := now()
					hmu.Lock()
					if err != nil {
						for _, op := range ops {
							history.Abandon(op)
						}
					} else {
						for k, op := range ops {
							sn := res.SNs[fmt.Sprint(k)]
							history.CompleteWrite(op, end, core.VersionedValue{Val: core.Value(kvs[k]), SN: core.SeqNum(sn)})
						}
					}
					hmu.Unlock()
					if err != nil {
						t.Errorf("batch write via node 1 failed: %v", err)
						return
					}
					batchesDone.Add(1)
				} else {
					k := rng.Int63n(nKeys)
					hmu.Lock()
					op := history.BeginWriteKey(1, core.RegisterID(k), now())
					hmu.Unlock()
					res, err := n1.write(k, val)
					end := now()
					hmu.Lock()
					if err != nil {
						history.Abandon(op)
					} else {
						history.CompleteWrite(op, end, core.VersionedValue{Val: core.Value(val), SN: core.SeqNum(res.SN)})
					}
					hmu.Unlock()
					if err != nil {
						t.Errorf("write via node 1 failed: %v", err)
						return
					}
					writesDone.Add(1)
				}
				time.Sleep(time.Duration(rng.Intn(30)) * time.Millisecond)
			}
		}(int64(w))
	}

	// Readers: random alive node EXCEPT the writer (the quorum protocols
	// serve one operation per key per node at a time, so a client
	// load-balances reads away from the writing node — NetCluster.ReadKey
	// encodes the same policy), random key. A read that fails (its node
	// was killed under it) is abandoned — the spec only constrains reads
	// that returned.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(rdr int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + rdr))
			for !stop.Load() {
				nd := alive.pickNot(rng, n1)
				if nd == nil {
					time.Sleep(10 * time.Millisecond)
					continue
				}
				k := rng.Int63n(nKeys)
				hmu.Lock()
				op := history.BeginReadKey(core.ProcessID(nd.id), core.RegisterID(k), now())
				hmu.Unlock()
				res, err := nd.read(k)
				end := now()
				hmu.Lock()
				if err != nil {
					history.Abandon(op)
					readsAbandoned.Add(1)
				} else {
					history.CompleteRead(op, end, core.VersionedValue{Val: core.Value(res.Val), SN: core.SeqNum(res.SN)})
					readsDone.Add(1)
				}
				hmu.Unlock()
				time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
			}
		}(int64(r))
	}

	// The churn schedule: join, graceful leave, then kill-and-replace —
	// the paper's constant-size churn in miniature. Traffic keeps flowing
	// until the LAST phase finishes (stop is set only after the schedule
	// barrier), so every membership event is mid-traffic by construction;
	// a phase that cannot complete fails the test rather than being
	// silently skipped.
	var phases atomic.Int32
	scheduleDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(scheduleDone)
		d := cfg.duration
		// Phase 1: a fresh process joins by dialing the founders.
		time.Sleep(3 * d / 10)
		n4, err := startNode(t, 4, cfg.protocol, 3, cfg.delta, cfg.tick, false,
			[]string{n1.listen, n2.listen, n3.listen})
		if err != nil {
			t.Error(err)
			return
		}
		if err := waitHealthy(n4, 2, 15*time.Second); err != nil {
			t.Errorf("joiner: %v", err)
			return
		}
		alive.add(n4)
		phases.Add(1)
		// Phase 2: node 3 departs gracefully (announced LEAVE, clean exit).
		time.Sleep(2 * d / 10)
		alive.remove(n3)
		time.Sleep(50 * time.Millisecond) // let in-flight reads against it settle
		if err := n3.leave(); err != nil {
			t.Errorf("node 3 leave: %v", err)
			return
		}
		n3.awaitExit(t, 15*time.Second)
		phases.Add(1)
		// Phase 3: node 2 crashes (SIGKILL) and a replacement joins using
		// only the survivors it would plausibly know about.
		time.Sleep(2 * d / 10)
		alive.remove(n2)
		time.Sleep(50 * time.Millisecond)
		n2.kill()
		n5, err := startNode(t, 5, cfg.protocol, 3, cfg.delta, cfg.tick, false,
			[]string{n1.listen, n4.listen})
		if err != nil {
			t.Error(err)
			return
		}
		if err := waitHealthy(n5, 2, 15*time.Second); err != nil {
			t.Errorf("replacement: %v", err)
			return
		}
		alive.add(n5)
		phases.Add(1)
	}()

	select {
	case <-scheduleDone:
	case <-time.After(cfg.duration + 90*time.Second):
		t.Error("churn schedule wedged")
	}
	// Keep traffic flowing past the last membership event, then stop.
	time.Sleep(cfg.duration / 10)
	stop.Store(true)
	wg.Wait()
	t.Logf("traffic and churn schedule finished at %v", time.Since(start).Round(time.Millisecond))
	if t.Failed() {
		return
	}
	if phases.Load() != 3 {
		t.Fatalf("churn schedule completed %d/3 phases — join/leave/kill must all happen mid-traffic", phases.Load())
	}

	// Quiesce (δ plus slop), then final reads on every surviving node:
	// with no concurrent writes left, regularity pins every key to its
	// last written value — cross-process convergence, checked through the
	// same history as everything else.
	time.Sleep(5 * time.Duration(cfg.delta) * time.Millisecond)
	for _, nd := range alive.snapshot() {
		for k := int64(0); k < nKeys; k++ {
			hmu.Lock()
			op := history.BeginReadKey(core.ProcessID(nd.id), core.RegisterID(k), now())
			hmu.Unlock()
			res, err := nd.read(k)
			end := now()
			if err != nil {
				t.Errorf("final read key %d at node %d: %v", k, nd.id, err)
				continue
			}
			hmu.Lock()
			history.CompleteRead(op, end, core.VersionedValue{Val: core.Value(res.Val), SN: core.SeqNum(res.SN)})
			hmu.Unlock()
			readsDone.Add(1)
		}
	}

	// The verdict: the workload respected the write discipline, and every
	// completed read is regular on its key.
	if err := history.ValidateWrites(); err != nil {
		t.Fatalf("workload broke the write discipline: %v", err)
	}
	if violations := history.CheckRegular(); len(violations) > 0 {
		for i, v := range violations {
			if i == 10 {
				t.Errorf("... and %d more", len(violations)-10)
				break
			}
			t.Errorf("regularity violation: %v", v)
		}
		t.FailNow()
	}
	inversions := history.FindInversions()

	// Liveness floor: chaos must not have starved the run.
	if writesDone.Load() < 10 || readsDone.Load() < 30 {
		t.Fatalf("too few operations completed: %d writes, %d batches, %d reads",
			writesDone.Load(), batchesDone.Load(), readsDone.Load())
	}
	if batchesDone.Load() == 0 {
		t.Fatalf("schedule completed no multi-key batches")
	}
	t.Logf("%s seed=%d: %d writes, %d batches, %d reads (%d abandoned), %d keys, %d new/old inversions, join+leave+kill done",
		cfg.protocol, seed, writesDone.Load(), batchesDone.Load(), readsDone.Load(),
		readsAbandoned.Load(), len(history.Keys()), len(inversions))
}
