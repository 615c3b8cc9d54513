package churnreg

import (
	"fmt"
	"testing"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/shard"
	"churnreg/internal/syncreg"
)

// TestWriteBatchEveryCell runs one 3-key WriteBatch in every cell of
// {SimCluster, NetCluster} × {Synchronous, EventuallySynchronous,
// StaticABD} × {unsharded, WithShards(4, 3)}: the batch succeeds, every key
// reads back its value, and the simulated history is regular. A batch is
// defined for every protocol, whatever facade or placement runs it.
func TestWriteBatchEveryCell(t *testing.T) {
	batch := map[RegisterID]int64{1: 10, 2: 20, 3: 30}
	type cluster interface {
		WriteBatch(map[RegisterID]int64) error
		ReadKey(RegisterID) (int64, error)
	}
	for _, facade := range []string{"sim", "net"} {
		for _, p := range []Protocol{Synchronous, EventuallySynchronous, StaticABD} {
			for _, shards := range []int{0, 4} {
				t.Run(fmt.Sprintf("%s/%v/shards=%d", facade, p, shards), func(t *testing.T) {
					opts := []Option{WithN(4), WithProtocol(p), WithOperationTimeout(10 * time.Second)}
					if shards > 0 {
						opts = append(opts, WithShards(shards, 3))
					}
					var c cluster
					var sim *SimCluster
					if facade == "sim" {
						s, err := NewSimCluster(append(opts, WithDelta(5), WithSeed(3))...)
						if err != nil {
							t.Fatal(err)
						}
						c, sim = s, s
					} else {
						n, err := NewNetCluster(append(opts, WithDelta(40), WithTick(time.Millisecond))...)
						if err != nil {
							t.Fatal(err)
						}
						defer n.Close()
						c = n
					}
					if err := c.WriteBatch(batch); err != nil {
						t.Fatalf("write batch: %v", err)
					}
					for k, want := range batch {
						got, err := c.ReadKey(k)
						if err != nil || got != want {
							t.Fatalf("read %v = %d, %v; want %d", k, got, err, want)
						}
					}
					if sim != nil {
						if rep := sim.Check(); !rep.OK() || rep.Writes != len(batch) {
							t.Fatalf("check: %v (want %d writes)", rep, len(batch))
						}
					}
				})
			}
		}
	}
}

// TestShardedBatchSplitsAtPrimaries: under the synchronous protocol, a
// batch whose keys live in two shards with different primaries is one
// write per key, each entering at its shard's primary: every key's
// WRITE goes to its shard's group, and no other message — no FORWARD —
// is sent. Every key reads back, and the history is regular.
func TestShardedBatchSplitsAtPrimaries(t *testing.T) {
	c, err := NewSimCluster(shardedOpts(Synchronous, 5, 4, 3, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	v := c.sys.Placement()
	other := 1
	for v.GroupFor(other)[0] == v.GroupFor(0)[0] {
		other++
	}
	batch := make(map[RegisterID]int64)
	for _, s := range []int{0, other} {
		n := 0
		for k := RegisterID(1); n < 2; k++ {
			if v.ShardOf(k) == s {
				batch[k] = int64(100 + k)
				n++
			}
		}
	}
	before := c.sys.Network().Stats().SentByKind
	if err := c.WriteBatch(batch); err != nil {
		t.Fatalf("write batch: %v", err)
	}
	sent := c.sys.Network().Stats().SentByKind
	want := uint64(2 * (len(v.GroupFor(0)) + len(v.GroupFor(other))))
	for kind, n := range sent {
		if got := n - before[kind]; kind == core.KindWrite && got != want || kind != core.KindWrite && got != 0 {
			t.Fatalf("sent %d %v, want %d WRITE and nothing else", got, kind, want)
		}
	}
	for _, s := range []int{0, other} {
		inner := c.sys.Node(v.GroupFor(s)[0]).(*shard.Node).Inner().(*syncreg.Node)
		if got := inner.Stats().Writes; got != 2 {
			t.Fatalf("primary %v of shard %d ran %d writes, want 2", v.GroupFor(s)[0], s, got)
		}
	}
	for k, want := range batch {
		if got, err := c.ReadKey(k); err != nil || got != want {
			t.Fatalf("read %v = %d, %v; want %d", k, got, err, want)
		}
	}
	if rep := c.Check(); !rep.OK() || rep.Writes != len(batch) {
		t.Fatalf("check: %v (want %d writes)", rep, len(batch))
	}
}
