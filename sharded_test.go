package churnreg

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"churnreg/internal/core"
	"churnreg/internal/shard"
	"churnreg/internal/sim"
)

// shardedOpts builds the deterministic sharded cluster configuration the
// tests share: N bootstrap processes, S shards, R replicas (R < N is the
// point — capacity, not just redundancy).
func shardedOpts(p Protocol, n int, s, r int, seed uint64, extra ...Option) []Option {
	opts := []Option{
		WithN(n),
		WithDelta(5),
		WithSeed(seed),
		WithProtocol(p),
		WithShards(s, r),
		WithInitialValue(100),
	}
	return append(opts, extra...)
}

// refusesRead reports whether a read of k at id must fail with
// ErrUnroutable: the synchronous protocol reads the local copy, which is
// valid only at a replica of k; a quorum read runs anywhere.
func refusesRead(c *SimCluster, p Protocol, id ProcessID, k RegisterID) bool {
	return p == Synchronous && !c.sys.Placement().IsReplica(k, id)
}

// TestShardedBasic: reads and writes on many keys through a sharded
// cluster return the written values and pass the regularity checker,
// for both dynamic protocols. Every active process reads every key; a
// synchronous read outside the key's group must refuse.
func TestShardedBasic(t *testing.T) {
	for _, p := range []Protocol{Synchronous, EventuallySynchronous} {
		t.Run(p.String(), func(t *testing.T) {
			c, err := NewSimCluster(shardedOpts(p, 6, 8, 3, 1)...)
			if err != nil {
				t.Fatal(err)
			}
			const nKeys = 20
			for k := RegisterID(0); k < nKeys; k++ {
				if err := c.WriteKey(k, int64(1000+k)); err != nil {
					t.Fatalf("write %v: %v", k, err)
				}
			}
			c.Run(20) // let the last writes settle everywhere
			refused := 0
			for k := RegisterID(0); k < nKeys; k++ {
				for _, id := range c.ActiveIDs() {
					v, err := c.ReadKeyAt(id, k)
					if refusesRead(c, p, id, k) {
						if !errors.Is(err, core.ErrUnroutable) {
							t.Fatalf("read %v at non-replica %v = %d, %v; want ErrUnroutable", k, id, v, err)
						}
						refused++
						continue
					}
					if err != nil {
						t.Fatalf("read %v at %v: %v", k, id, err)
					}
					if v != int64(1000+k) {
						t.Fatalf("read %v at %v = %d, want %d", k, id, v, 1000+k)
					}
				}
			}
			if (p == Synchronous) != (refused > 0) {
				t.Fatalf("%d reads refused under %v", refused, p)
			}
			rep := c.Check()
			if !rep.OK() {
				t.Fatalf("regularity violated:\n%v", rep)
			}
			if rep.Reads == 0 || rep.Writes != nKeys {
				t.Fatalf("history: %d reads, %d writes", rep.Reads, rep.Writes)
			}
		})
	}
}

// TestShardedCapacity is the scaling claim in test form: with S shards
// over R replicas, a write's dissemination reaches only the key's
// replica group, so a non-replica's store never sees the key. Every key
// must be held by AT MOST R nodes — its replicas, since every write
// enters at the key's primary — not by all N.
func TestShardedCapacity(t *testing.T) {
	const (
		n = 8
		s = 16
		r = 2
	)
	c, err := NewSimCluster(shardedOpts(Synchronous, n, s, r, 3)...)
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 40
	for k := RegisterID(1); k <= nKeys; k += 2 {
		if err := c.WriteKey(k, int64(k)); err != nil {
			t.Fatalf("write %v: %v", k, err)
		}
	}
	// The other half via batches: multi-shard batches must decompose
	// into group-scoped writes, not broadcast the union of groups (which
	// would store every key on every union member).
	for k := RegisterID(2); k <= nKeys; k += 4 {
		kvs := map[RegisterID]int64{k: int64(k)}
		if k+2 <= nKeys {
			kvs[k+2] = int64(k + 2)
		}
		if err := c.WriteBatch(kvs); err != nil {
			t.Fatalf("batch write %v: %v", k, err)
		}
	}
	c.Run(20)
	holders := make(map[RegisterID]int)
	c.sys.ForEachNode(func(_ ProcessID, node core.Node) {
		st, ok := node.(core.Stored)
		if !ok {
			t.Fatal("node is not a core.Stored")
		}
		for _, k := range st.Store().Keys() {
			holders[k]++
		}
	})
	for k := RegisterID(1); k <= nKeys; k++ {
		if holders[k] == 0 {
			t.Fatalf("key %v held by nobody", k)
		}
		if holders[k] > r {
			t.Fatalf("key %v held by %d nodes, want <= R = %d (sharding is not scoping writes)", k, holders[k], r)
		}
	}
}

// TestShardedHandoffChurn is the acceptance scenario: a sharded cluster
// with R < N keeps per-key regularity across shard handoff during a
// join, a graceful leave (the simulator's departures are immediate —
// the paper's model has no crash/leave distinction), and a
// kill-and-replace, all interleaved with reads and writes on many keys.
// Reads pipeline ACROSS the membership events; writes are awaited before
// each event so the single-sequence-number authority moves with the
// primary via handoff, never concurrently with it.
func TestShardedHandoffChurn(t *testing.T) {
	for _, p := range []Protocol{Synchronous, EventuallySynchronous} {
		for _, seed := range []uint64{1, 2, 7} {
			t.Run(fmt.Sprintf("%s/seed=%d", p, seed), func(t *testing.T) {
				c, err := NewSimCluster(shardedOpts(p, 6, 8, 3, seed)...)
				if err != nil {
					t.Fatal(err)
				}
				const nKeys = 12
				val := int64(0)
				writeAll := func() {
					for k := RegisterID(0); k < nKeys; k++ {
						val++
						if err := c.WriteKey(k, val*100+int64(k)); err != nil {
							t.Fatalf("write %v: %v", k, err)
						}
					}
				}
				// A synchronous read at a non-replica refuses at once; every
				// other read is returned for the caller to await.
				readBurst := func() []*PendingOp {
					var pops []*PendingOp
					for _, id := range c.ActiveIDs() {
						for k := RegisterID(0); k < nKeys; k += 3 {
							op := c.StartReadKeyAt(id, k)
							if refusesRead(c, p, id, k) {
								if !errors.Is(op.Err(), core.ErrUnroutable) {
									t.Fatalf("read %v at non-replica %v: %v, want ErrUnroutable", k, id, op.Err())
								}
								continue
							}
							pops = append(pops, op)
						}
					}
					return pops
				}

				writeAll()

				// Phase 1: join mid-reads — the joiner gains shards and
				// must hand off state before serving them.
				pops := readBurst()
				joined, err := c.Join()
				if err != nil {
					t.Fatalf("join: %v", err)
				}
				if err := c.Await(pops...); err != nil {
					t.Fatalf("reads across join: %v", err)
				}
				writeAll()
				c.Run(50) // let handoff rounds complete

				// Phase 2: a (non-writer) process leaves; survivors gain
				// its shards.
				var victim ProcessID
				for _, id := range c.ActiveIDs() {
					if id != joined {
						victim = id
						break
					}
				}
				pops = readBurst()
				c.Leave(victim)
				_ = c.Await(pops...)
				// Reads in flight AT the leaver die with it — legal.
				// Reads invoked on any surviving node must complete.
				for _, op := range pops {
					if op.proc != victim && op.Err() != nil {
						t.Fatalf("read on surviving node %v failed across leave: %v", op.proc, op.Err())
					}
				}
				writeAll()
				c.Run(50)

				// Phase 3: kill-and-replace — another leave plus a fresh
				// join, mid-reads again.
				var victim2 ProcessID
				for _, id := range c.ActiveIDs() {
					if id != joined {
						victim2 = id
						break
					}
				}
				pops = readBurst()
				c.Leave(victim2)
				if _, err := c.Join(); err != nil {
					t.Fatalf("replacement join: %v", err)
				}
				_ = c.Await(pops...) // reads at the victim legitimately fail
				writeAll()
				c.Run(50)

				// Convergence: every active node that may read a key (every
				// one under esync, its replicas under sync) serves its last
				// written value.
				for k := RegisterID(0); k < nKeys; k++ {
					want, seen := int64(0), false
					for _, id := range c.ActiveIDs() {
						v, err := c.ReadKeyAt(id, k)
						if refusesRead(c, p, id, k) {
							if !errors.Is(err, core.ErrUnroutable) {
								t.Fatalf("final read %v at non-replica %v = %d, %v; want ErrUnroutable", k, id, v, err)
							}
							continue
						}
						if err != nil {
							t.Fatalf("final read %v at %v: %v", k, id, err)
						}
						if !seen {
							want, seen = v, true
						} else if v != want {
							t.Fatalf("key %v diverged: %d vs %d", k, v, want)
						}
					}
				}

				rep := c.Check()
				if !rep.OK() {
					t.Fatalf("regularity violated (%s seed=%d):\n%v", p, seed, rep)
				}
				if rep.Reads < 20 || rep.Writes < 4*nKeys {
					t.Fatalf("too few ops checked: %d reads, %d writes", rep.Reads, rep.Writes)
				}
			})
		}
	}
}

// TestShardedHandoffTransfersState pins the handoff mechanism itself: a
// joiner that gains shards ends up holding the previously written values
// of exactly those shards' keys, received via handoff snapshots (the
// wrapper's stats prove the mechanism ran, not just the outcome).
func TestShardedHandoffTransfersState(t *testing.T) {
	c, err := NewSimCluster(shardedOpts(Synchronous, 5, 8, 2, 9)...)
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 30
	for k := RegisterID(1); k <= nKeys; k++ {
		if err := c.WriteKey(k, int64(7000+k)); err != nil {
			t.Fatalf("write %v: %v", k, err)
		}
	}
	id, err := c.Join()
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	c.Run(100) // handoff rounds
	node := c.sys.Node(id)
	w, ok := node.(*shard.Node)
	if !ok {
		t.Fatalf("node is %T, want *shard.Node", node)
	}
	st := w.Stats()
	if st.HandoffsStarted == 0 || st.HandoffsComplete == 0 || st.HandoffSnapshots == 0 {
		t.Fatalf("joiner ran no handoff: %+v", st)
	}
	view := w.Placement()
	if view == nil {
		t.Fatal("joiner has no placement view")
	}
	// Every key of every shard the joiner owns must now be readable AT
	// the joiner with its written value.
	owned := 0
	for k := RegisterID(1); k <= nKeys; k++ {
		if !view.IsReplica(k, id) {
			continue
		}
		owned++
		v, err := c.ReadKeyAt(id, k)
		if err != nil {
			t.Fatalf("read owned key %v at joiner: %v", k, err)
		}
		if v != int64(7000+k) {
			t.Fatalf("owned key %v at joiner = %d, want %d", k, v, 7000+k)
		}
	}
	if owned == 0 {
		t.Skip("joiner owns none of the written keys under this seed (raise nKeys)")
	}
	if rep := c.Check(); !rep.OK() {
		t.Fatalf("regularity violated:\n%v", rep)
	}
}

// TestShardedQuorumIsGroupScoped: with the eventually synchronous
// protocol sharded at R=3 over N=9, a write must complete with acks from
// its replica group alone — after isolating the write path we assert the
// inner esync node's op table drains, which it can only do with a
// majority of R (2 acks), never a majority of N (5), since only R nodes
// ever saw the WRITE.
func TestShardedQuorumIsGroupScoped(t *testing.T) {
	c, err := NewSimCluster(shardedOpts(EventuallySynchronous, 9, 4, 3, 5)...)
	if err != nil {
		t.Fatal(err)
	}
	for k := RegisterID(0); k < 10; k++ {
		if err := c.WriteKey(k, int64(k)*11); err != nil {
			t.Fatalf("write %v: %v", k, err)
		}
	}
	c.Run(50)
	if got := c.PendingOps(); got != 0 {
		t.Fatalf("op tables not reclaimed at quiescence: %d pending", got)
	}
	if rep := c.Check(); !rep.OK() {
		t.Fatalf("regularity violated:\n%v", rep)
	}
}

// TestUnshardedUnchanged guards the default: without WithShards the
// factory is NOT wrapped, so the pre-sharding behavior is bit-for-bit
// identical (the determinism suite pins exact traces separately).
func TestUnshardedUnchanged(t *testing.T) {
	c, err := NewSimCluster(WithN(5), WithDelta(5), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(42); err != nil {
		t.Fatal(err)
	}
	c.sys.ForEachNode(func(_ ProcessID, node core.Node) {
		if _, ok := node.(*shard.Node); ok {
			t.Fatal("unsharded cluster built sharded nodes")
		}
	})
	v, err := c.Read()
	if err != nil || v != 42 {
		t.Fatalf("read = %d, %v", v, err)
	}
}

// TestReadKeyAtNonReplicaRunsQuorumRead: under a quorum protocol a read
// entered at a process outside the key's group runs the engine's own
// read, scoped to the group. It returns the latest write, no FORWARD
// crosses the network, and the verdict is clean.
func TestReadKeyAtNonReplicaRunsQuorumRead(t *testing.T) {
	for _, p := range []Protocol{EventuallySynchronous, StaticABD} {
		t.Run(p.String(), func(t *testing.T) {
			c, err := NewSimCluster(shardedOpts(p, 6, 8, 3, 1)...)
			if err != nil {
				t.Fatal(err)
			}
			const k = RegisterID(7)
			reads := 0
			for i := int64(1); i <= 3; i++ {
				if err := c.WriteKey(k, 100*i); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
				for _, id := range c.ActiveIDs() {
					if c.sys.Placement().IsReplica(k, id) {
						continue
					}
					if v, err := c.ReadKeyAt(id, k); err != nil || v != 100*i {
						t.Fatalf("read at non-replica %v = %d, %v; want %d", id, v, err, 100*i)
					}
					reads++
				}
			}
			if reads == 0 {
				t.Fatal("every process replicates the key")
			}
			if n := c.sys.Network().Stats().SentByKind[core.KindForward]; n != 0 {
				t.Fatalf("%d FORWARDs sent", n)
			}
			if rep := c.Check(); !rep.OK() || rep.Reads != reads {
				t.Fatalf("%d reads checked, want %d:\n%v", rep.Reads, reads, rep)
			}
		})
	}
}

// TestSimReadKeySkipsJoiningReplicas: a placement view is built over the
// active processes, so under churn no key's group holds a process that
// is still joining, and every ReadKey is served by a replica that has
// joined. At churn 0.015 most reads met a joining replica while views
// counted joiners (173 of 300); now none does. A write still fails
// unapplied, ErrUnroutable, when its primary loses the key while the
// write waits on a handoff; at most 100 may.
func TestSimReadKeySkipsJoiningReplicas(t *testing.T) {
	joins, refusedWrites := churnedReadKeys(t, 0.015)
	t.Logf("%d processes entered; %d of 300 writes failed unapplied", joins, refusedWrites)
	if refusedWrites > 100 {
		t.Fatalf("%d of 300 writes failed unapplied; want most writes spared", refusedWrites)
	}
}

// TestSimReadKeyAllReplicasJoining: at churn 0.02, where a view that
// counted joiners left some key with every replica joining and its read
// unserved (ErrNoActiveProcess), every read succeeds and no read's group
// holds a joiner.
func TestSimReadKeyAllReplicasJoining(t *testing.T) {
	joins, refusedWrites := churnedReadKeys(t, 0.02)
	t.Logf("%d processes entered; %d of 300 writes failed unapplied", joins, refusedWrites)
}

// churnedReadKeys writes and reads 16 keys of a seeded sharded sync
// SimCluster (n = 8, S = 8, R = 3) under the given churn rate, 300 times
// each. A read whose key's group holds a joining process, a failed
// read, a write failing other than unapplied with ErrUnroutable, fewer
// than 30 joins and an unclean Check are fatal. It returns the joins and
// the writes that failed unapplied.
func churnedReadKeys(t *testing.T, rate float64) (joins, refusedWrites int) {
	t.Helper()
	c, err := NewSimCluster(shardedOpts(Synchronous, 8, 8, 3, 3, WithChurnRate(rate))...)
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 16
	for i := 0; i < 300; i++ {
		k := RegisterID(i % nKeys)
		if err := c.WriteKey(k, int64(i)); errors.Is(err, core.ErrUnroutable) {
			refusedWrites++
		} else if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if g := c.sys.Placement().Group(k); slices.ContainsFunc(g, func(id ProcessID) bool { return !c.sys.Node(id).Active() }) {
			t.Fatalf("read %d: %v's group %v holds a joining process", i, k, g)
		}
		if _, err := c.ReadKey(k); err != nil {
			t.Fatalf("read %d of %v (group %v): %v", i, k, c.sys.Placement().Group(k), err)
		}
		c.Run(3)
	}
	joins = len(c.sys.Tracker().Records()) - 8
	if joins < 30 {
		t.Fatalf("%d processes entered; want churn that moves shards all run", joins)
	}
	if rep := c.Check(); !rep.OK() {
		t.Fatalf("check: %v", rep)
	}
	return joins, refusedWrites
}

// TestSimNewPrimaryLearnsBeforeItMints: under StaticABD (n = 6, S = 1,
// R = 3) the network drops the primary's WRITEs to the shard's second
// replica, so two writes complete without it. The primary leaves and the
// second replica, stale, becomes primary. Its write must order after the
// two completed ones: the per-key write order holds.
func TestSimNewPrimaryLearnsBeforeItMints(t *testing.T) {
	c, err := NewSimCluster(shardedOpts(StaticABD, 6, 1, 3, 3)...)
	if err != nil {
		t.Fatal(err)
	}
	const key = RegisterID(1)
	g := c.sys.Placement().GroupFor(0)
	c.sys.Network().SetDropRule(func(from, to core.ProcessID, m core.Message, _ sim.Time) bool {
		return from == g[0] && to == g[1] && m.Kind() == core.KindWrite
	})
	for _, v := range []int64{11, 12} {
		if err := c.WriteKey(key, v); err != nil {
			t.Fatalf("write %d: %v", v, err)
		}
	}
	c.Leave(g[0])
	if ng := c.sys.Placement().GroupFor(0); ng[0] != g[1] {
		t.Fatalf("group %v after %v's departure from %v: want %v primary", ng, g[0], g, g[1])
	}
	if err := c.WriteKey(key, 21); err != nil {
		t.Fatalf("write 21: %v", err)
	}
	if rep := c.Check(); rep.WriteOrder != nil || !rep.OK() {
		t.Fatalf("write order after the primary left: %v\n%v", rep.WriteOrder, rep)
	}
}
