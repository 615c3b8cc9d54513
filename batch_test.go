package churnreg

import (
	"fmt"
	"testing"
	"time"
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
