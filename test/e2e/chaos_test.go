package e2e

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"churnreg/client"
	"churnreg/internal/core"
	"churnreg/internal/placement"
	"churnreg/internal/sim"
	"churnreg/internal/spec"
)

// The placement of every sharded run: S=8 shards over replica groups of
// R=3, with peer eviction tightened so placement heals within the run
// after a crash.
const (
	shards      = 8
	replication = 3
	evictAfter  = "500ms"
)

// nKeys is the keyspace every run's traffic draws from.
const nKeys = 6

// chaosConfig parameterizes one run: the system under test and the churn
// schedule it goes through.
type chaosConfig struct {
	protocol string
	delta    int64 // δ in ticks of one millisecond
	// founders is the number of bootstrap processes, and every process's -n.
	founders int
	// sharded partitions the keyspace (shards, replication, evictAfter);
	// otherwise every process replicates every key.
	sharded bool
	// writers is the number of concurrent writing goroutines. All of them
	// share the one client, which sends every write of a key to the one
	// process that mints its sequence numbers.
	writers  int
	schedule []phase
	// tail is how long traffic runs past the last phase.
	tail time.Duration
}

// phase is one membership event of a churn schedule, after a pause.
type phase struct {
	after time.Duration
	leave int64   // id of a process that departs gracefully (0: none)
	kill  int64   // id of a process that crashes, by SIGKILL (0: none)
	join  []int64 // ids of the processes a fresh one dials (nil: no join)
	peers int     // the joiner is healthy once active with this many peers
}

// joinLeaveReplace is a system under the paper's constant-size churn in
// miniature: a fresh process joins by dialing the founders, founder 3
// departs gracefully, then founder 2 crashes and a replacement joins
// through the survivors it would plausibly know of — founder 1 and the
// first joiner.
func joinLeaveReplace(protocol string, delta int64, founders int, sharded bool, writers int) chaosConfig {
	var all []int64
	for id := int64(1); id <= int64(founders); id++ {
		all = append(all, id)
	}
	return chaosConfig{protocol: protocol, delta: delta, founders: founders, sharded: sharded, writers: writers,
		schedule: []phase{
			{after: 1200 * time.Millisecond, join: all, peers: founders - 1},
			{after: 800 * time.Millisecond, leave: 3},
			{after: 800 * time.Millisecond, kill: 2, join: []int64{1, int64(founders) + 1}, peers: 2},
		},
		tail: 400 * time.Millisecond}
}

// TestE2EBasic is the fast sanity path: a three-process cluster over real
// sockets takes writes through the client, and then every process serves
// every key its last written value.
func TestE2EBasic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs OS processes; skipped in -short")
	}
	cfg := chaosConfig{protocol: "sync", delta: 60, founders: 3}
	r := newRun(t, cfg, startFounders(t, cfg))
	for k, v := range map[int64]int64{0: 42, 1: 10, 2: 20} {
		if err := r.write(k, v); err != nil {
			t.Fatalf("write key %d: %v", k, err)
		}
	}
	time.Sleep(200 * time.Millisecond) // > δ: the broadcast has settled
	r.converge([]core.ProcessID{1, 2, 3}, 3)
	r.verdict()
}

// TestE2EChaos is the acceptance suite: three regserve OS processes on
// random ports take seeded reads and writes while a process joins, one
// departs gracefully and one is killed and replaced, all mid-traffic, and
// the client-observed histories must be regular on every key.
// -chaos.inflight raises the writer concurrency.
func TestE2EChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs OS processes; skipped in -short")
	}
	for _, cfg := range []chaosConfig{
		joinLeaveReplace("sync", 60, 3, false, *chaosInflight),
		joinLeaveReplace("esync", 5, 3, false, *chaosInflight),
	} {
		for _, seed := range seedsToRun() {
			t.Run(fmt.Sprintf("%s/seed=%d", cfg.protocol, seed), func(t *testing.T) {
				runChaos(t, cfg, seed)
			})
		}
	}
}

// TestE2EChaosPipelined is the inflight=8 regression: eight concurrent
// writers pipeline through the process that mints every key's sequence
// numbers (several in-flight writes on one key included) under the full
// churn schedule.
func TestE2EChaosPipelined(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs OS processes; skipped in -short")
	}
	runChaos(t, joinLeaveReplace("esync", 5, 3, false, 8), 7) // pinned regression seed
}

// TestE2EChaosCoalesced is the deep-pipeline regression for the frame-
// coalescing write path: 128 concurrent writers keep the writing
// process's per-peer queues persistently deep, so nearly every quorum
// broadcast leaves in a multi-frame batched write, while the schedule
// still kills, replaces and reconnects processes mid-traffic (batches
// dying with their connections, inflight requeues, HELLO-before-batch
// ordering, all over real sockets and under -race in CI).
func TestE2EChaosCoalesced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs OS processes; skipped in -short")
	}
	runChaos(t, joinLeaveReplace("esync", 5, 3, false, 128), 7) // pinned regression seed
}

// TestE2EChaosSharded: six regserve OS processes over the run (four
// founders, a joiner and a replacement) shard the keyspace S=8 ways at
// R=3, strictly fewer replicas than live processes at every instant.
// The client sends each write to its key's shard primary and each read
// to a member of its group, while the join hands shards to the newcomer
// and the leave and the crash take them away.
func TestE2EChaosSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs OS processes; skipped in -short")
	}
	for _, cfg := range []chaosConfig{
		joinLeaveReplace("sync", 60, 4, true, 1),
		joinLeaveReplace("esync", 5, 4, true, 1),
	} {
		for _, seed := range seedsToRun() {
			t.Run(fmt.Sprintf("%s/seed=%d", cfg.protocol, seed), func(t *testing.T) {
				runChaos(t, cfg, seed)
			})
		}
	}
}

// TestE2EChaosWireClient is the hostile case for the client's placement
// cache: founder 4 of a sharded system is killed without a goodbye
// mid-traffic and a replacement joins later, so the client keeps routing
// to the dead process until sends fail or the servers' refreshed views
// arrive, and must re-learn placement twice. Correctness while the cache
// is stale rests on servers refusing what they no longer own.
func TestE2EChaosWireClient(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs OS processes; skipped in -short")
	}
	cfg := chaosConfig{protocol: "esync", delta: 5, founders: 4, sharded: true, writers: 1,
		schedule: []phase{
			{after: 1600 * time.Millisecond, kill: 4},
			{after: 800 * time.Millisecond, join: []int64{1, 2}, peers: 2},
		},
		tail: time.Second}
	for _, seed := range seedsToRun() {
		t.Run(fmt.Sprintf("%s/seed=%d", cfg.protocol, seed), func(t *testing.T) {
			runChaos(t, cfg, seed)
		})
	}
}

// TestE2EChaosShardedABD: the static quorum protocol, sharded as in
// TestE2EChaosSharded over four founders, loses founder 4 — the primary
// of keys 0, 2 and 3 — to a SIGKILL mid-traffic. Each key's new primary
// held it as a backup, possibly without its latest writes, so it must
// learn the shard's state before it mints; the regularity and write-order
// verdicts hold. No process joins: an abd replacement never becomes
// active, so it would never report healthy.
func TestE2EChaosShardedABD(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs OS processes; skipped in -short")
	}
	cfg := chaosConfig{protocol: "abd", delta: 5, founders: 4, sharded: true, writers: 1,
		schedule: []phase{{after: 1600 * time.Millisecond, kill: 4}},
		tail:     time.Second}
	for _, seed := range seedsToRun() {
		t.Run(fmt.Sprintf("%s/seed=%d", cfg.protocol, seed), func(t *testing.T) {
			runChaos(t, cfg, seed)
		})
	}
}

// run is one system under test with its client and the history of every
// operation the client made.
type run struct {
	t     *testing.T
	cfg   chaosConfig
	c     *client.Client
	start time.Time

	writes, refused, reads, failed atomic.Uint64

	mu      sync.Mutex // guards the fields below
	history *spec.History
	// poisoned keys had an ambiguous write — one that may or may not have
	// been applied. Nothing writes them again (re-issuing could store one
	// value under two sequence numbers); the ambiguous writes are resolved
	// against the reads at the end.
	poisoned  map[int64]bool
	ambiguous []ambiguousWrite
}

// ambiguousWrite is a write whose outcome the client never learned.
type ambiguousWrite struct {
	op  *spec.Op
	key int64
	val int64
}

// newRun dials one client to the founders. Its OpTimeout is generous: a
// write that outlives it is ambiguous.
func newRun(t *testing.T, cfg chaosConfig, founders []*node) *run {
	t.Helper()
	seeds := make([]string, len(founders))
	for i, nd := range founders {
		seeds[i] = nd.listen
	}
	c, err := client.Dial(client.Config{Seeds: seeds, OpTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if c.Sharded() != cfg.sharded {
		t.Fatalf("client learned sharded=%v from the handshake, want %v", c.Sharded(), cfg.sharded)
	}
	return &run{t: t, cfg: cfg, c: c, start: time.Now(),
		history: spec.NewHistory(core.VersionedValue{}), poisoned: make(map[int64]bool)}
}

func (r *run) now() sim.Time { return sim.Time(time.Since(r.start).Microseconds()) }

func (r *run) isPoisoned(k int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.poisoned[k]
}

// write writes val to key k and records it. All writes are recorded as
// one process's: the client sends every write of a key to one server.
// A write the client reports unacknowledged poisons its key; one that
// fails any other way was refused, not applied, and is abandoned.
func (r *run) write(k, val int64) error {
	r.mu.Lock()
	op := r.history.BeginWriteKey(1, core.RegisterID(k), r.now())
	r.mu.Unlock()
	v, err := r.c.Write(k, val)
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case err == nil:
		r.history.CompleteWrite(op, end, core.VersionedValue{Val: core.Value(v.Val), SN: core.SeqNum(v.SN)})
		r.writes.Add(1)
	case errors.Is(err, client.ErrUnacknowledged):
		r.poisoned[k] = true
		r.ambiguous = append(r.ambiguous, ambiguousWrite{op: op, key: k, val: val})
	default:
		r.history.Abandon(op)
		r.refused.Add(1)
	}
	return err
}

// read reads key k for reader proc and records it, attributed to the
// process that served it.
func (r *run) read(proc core.ProcessID, k int64) (core.ProcessID, error) {
	r.mu.Lock()
	op := r.history.BeginReadKey(proc, core.RegisterID(k), r.now())
	r.mu.Unlock()
	v, served, err := r.c.ReadServed(k)
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.history.Abandon(op)
		r.failed.Add(1)
		return 0, err
	}
	r.history.SetServer(op, core.ProcessID(served))
	r.history.CompleteRead(op, end, core.VersionedValue{Val: core.Value(v.Val), SN: core.SeqNum(v.SN)})
	r.reads.Add(1)
	return core.ProcessID(served), nil
}

// converge reads keys 0 to keys-1 until each live process of a key's
// replica group (every live process when unsharded) has served it once.
// With no write in flight, regularity then pins every copy of every key
// to its last written value.
func (r *run) converge(live []core.ProcessID, keys int64) {
	var view *placement.View
	if r.cfg.sharded {
		view = placement.Build(placement.Config{Shards: shards, Replication: replication}, live)
	}
	deadline := time.Now().Add(15 * time.Second)
	for k := int64(0); k < keys; k++ {
		group := live
		if view != nil {
			group = view.Group(core.RegisterID(k))
		}
		unserved := make(map[core.ProcessID]bool, len(group))
		for _, id := range group {
			unserved[id] = true
		}
		var lastErr error
		for len(unserved) > 0 && time.Now().Before(deadline) {
			served, err := r.read(200, k)
			if err != nil {
				lastErr = err
				time.Sleep(100 * time.Millisecond)
				continue
			}
			delete(unserved, served)
		}
		if len(unserved) > 0 {
			r.t.Errorf("final reads of key %d: group %v, never served by %v (last error %v)", k, group, unserved, lastErr)
		}
	}
}

// verdict resolves the ambiguous writes against everything the system was
// observed to return — a value some read saw did happen, so its ⟨v, sn⟩
// goes on the still-pending write; a value no read saw needs nothing —
// and then checks the history: the workload kept the write discipline,
// and every completed read is regular on its key. It reports how many
// ambiguous writes were resolved.
func (r *run) verdict() (resolved int) {
	t := r.t
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, aw := range r.ambiguous {
		for _, op := range r.history.Ops() {
			if op.Kind == spec.OpRead && op.Completed && op.Reg == core.RegisterID(aw.key) &&
				op.Value.Val == core.Value(aw.val) {
				r.history.ResolveValue(aw.op, op.Value)
				resolved++
				break
			}
		}
	}
	if err := r.history.ValidateWrites(); err != nil {
		t.Fatalf("workload broke the write discipline: %v", err)
	}
	if violations := r.history.CheckRegular(); len(violations) > 0 {
		for i, v := range violations {
			if i == 10 {
				t.Errorf("... and %d more", len(violations)-10)
				break
			}
			t.Errorf("regularity violation: %v", v)
		}
		t.FailNow()
	}
	return resolved
}

// runChaos runs cfg's system through its churn schedule under seeded
// traffic — cfg.writers writers and three readers sharing one client —
// and judges the client-observed history.
func runChaos(t *testing.T, cfg chaosConfig, seed int64) {
	founders := startFounders(t, cfg)
	r := newRun(t, cfg, founders)
	live := make(map[int64]*node, len(founders))
	for _, nd := range founders {
		live[nd.id] = nd
	}

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		// The schedule goroutine alone touches live, departed and phases
		// until wg.Wait returns.
		departed []int64
		phases   int
	)
	for w := int64(0); w < int64(cfg.writers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + w))
			for counter := int64(1); !stop.Load(); counter++ {
				// Values are unique per operation across writers, so an
				// ambiguous write can be told apart in any read.
				if k := rng.Int63n(nKeys); !r.isPoisoned(k) {
					r.write(k, seed*100_000_000+w*1_000_000+counter)
				}
				time.Sleep(time.Duration(rng.Intn(30)) * time.Millisecond)
			}
		}()
	}
	for rdr := int64(0); rdr < 3; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + rdr))
			for !stop.Load() {
				// A read that fails (its server died under it, or placement
				// was moving) is abandoned: the spec only constrains reads
				// that returned.
				r.read(core.ProcessID(100+rdr), rng.Int63n(nKeys))
				time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
			}
		}()
	}

	// The churn schedule. Traffic flows until after the LAST phase, so
	// every membership event is mid-traffic by construction; a phase that
	// cannot complete fails the test rather than being skipped.
	scheduleDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(scheduleDone)
		next := int64(cfg.founders) + 1
		for _, ph := range cfg.schedule {
			time.Sleep(ph.after)
			if nd := live[ph.leave]; nd != nil {
				delete(live, ph.leave)
				departed = append(departed, ph.leave)
				if err := nd.leave(); err != nil {
					t.Errorf("node %d leave: %v", nd.id, err)
					return
				}
				nd.awaitExit(t, 15*time.Second)
			}
			if nd := live[ph.kill]; nd != nil {
				delete(live, ph.kill)
				departed = append(departed, ph.kill)
				nd.kill()
			}
			if ph.join != nil {
				var peers []string
				for _, id := range ph.join {
					peers = append(peers, live[id].listen)
				}
				nd, err := startNode(t, cfg, next, false, peers)
				if err != nil {
					t.Error(err)
					return
				}
				if err := waitHealthy(nd, ph.peers, 15*time.Second); err != nil {
					t.Errorf("joiner: %v", err)
					return
				}
				live[next] = nd
				next++
			}
			phases++
		}
	}()
	select {
	case <-scheduleDone:
	case <-time.After(100 * time.Second):
		t.Error("churn schedule wedged")
	}
	time.Sleep(cfg.tail)
	stop.Store(true)
	wg.Wait()
	t.Logf("traffic and churn schedule finished at %v", time.Since(r.start).Round(time.Millisecond))
	if t.Failed() {
		return
	}
	if phases != len(cfg.schedule) {
		t.Fatalf("churn schedule completed %d/%d phases", phases, len(cfg.schedule))
	}
	if !cfg.sharded && r.refused.Load() > 0 {
		// Unsharded, every write goes to the lowest id, founder 1, and no
		// schedule takes it down: a refusal there is a bug.
		t.Errorf("%d writes refused, want 0: their target, founder 1, never left", r.refused.Load())
	}

	// Quiesce, then converge on the survivors.
	time.Sleep(10 * time.Duration(cfg.delta) * time.Millisecond)
	var ids []core.ProcessID
	for id := range live {
		ids = append(ids, core.ProcessID(id))
	}
	r.converge(ids, nKeys)
	if cfg.sharded {
		// Eviction is tight: a departed process is gone from the client's
		// adopted view by now, not retried forever.
		for _, id := range departed {
			if slices.Contains(r.c.Members(), id) {
				t.Errorf("client view still lists departed node %d: members=%v", id, r.c.Members())
			}
		}
	}
	resolved := r.verdict()

	// Liveness floor: chaos must not have starved the run.
	if r.writes.Load() < 10 || r.reads.Load() < 30 {
		t.Fatalf("too few operations completed: %d writes, %d reads", r.writes.Load(), r.reads.Load())
	}
	t.Logf("%s seed=%d sharded=%v writers=%d: %d writes (%d refused, %d ambiguous, %d resolved), %d reads (%d failed), %d new/old inversions, %d/%d phases; client %+v",
		cfg.protocol, seed, cfg.sharded, cfg.writers, r.writes.Load(), r.refused.Load(), len(r.ambiguous), resolved,
		r.reads.Load(), r.failed.Load(), len(r.history.FindInversions()), phases, len(cfg.schedule), r.c.Stats())
}
