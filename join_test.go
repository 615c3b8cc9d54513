package churnreg

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// TestStaticABDJoinAdmitsAtOnce: StaticABD has no join, so both facades'
// Join return as soon as the passive replica has started, sharded or
// not. The simulated clock does not move, a real Join takes a fraction
// of the operation timeout, and the process is present and not active.
// Sharded, the replacement, never active, is no key's replica or
// primary: it owns no shard, and a write to each of 64 keys (sim) or 32
// (net) succeeds.
func TestStaticABDJoinAdmitsAtOnce(t *testing.T) {
	const opTimeout = 2 * time.Second
	for _, sharded := range []bool{false, true} {
		opts := func(n int) []Option {
			o := []Option{WithN(n), WithProtocol(StaticABD), WithOperationTimeout(opTimeout)}
			if sharded {
				o = append(o, WithShards(8, 3))
			}
			return o
		}
		t.Run(fmt.Sprintf("sim/sharded=%v", sharded), func(t *testing.T) {
			c, err := NewSimCluster(opts(6)...)
			if err != nil {
				t.Fatal(err)
			}
			before := c.sys.Now()
			id, err := c.Join()
			if err != nil {
				t.Fatalf("join: %v", err)
			}
			if now := c.sys.Now(); now != before {
				t.Fatalf("join ran the clock from %v to %v", before, now)
			}
			if !c.sys.Present(id) || slices.Contains(c.ActiveIDs(), id) {
				t.Fatalf("after join, %v present=%v active=%v; want present and not active",
					id, c.sys.Present(id), slices.Contains(c.ActiveIDs(), id))
			}
			if sharded {
				owned := c.sys.Placement().OwnedCount(id)
				if failed := writeKeys(c.WriteKey, 64); owned != 0 || failed != 0 {
					t.Fatalf("the passive replacement %v owns %d shards, and %d of 64 writes failed", id, owned, failed)
				}
			}
		})
		t.Run(fmt.Sprintf("net/sharded=%v", sharded), func(t *testing.T) {
			c, err := NewNetCluster(opts(3)...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			start := time.Now()
			id, err := c.Join()
			if err != nil {
				t.Fatalf("join: %v", err)
			}
			if took := time.Since(start); took > opTimeout/4 {
				t.Fatalf("join took %v, want well under the %v timeout", took, opTimeout)
			}
			tr, err := c.get(id)
			if err != nil {
				t.Fatalf("joined process is gone: %v", err)
			}
			if tr.Active() {
				t.Fatalf("%v is active; a StaticABD replacement stays passive", id)
			}
			if sharded {
				// Once every process knows the replacement, none of their
				// views gives it a shard.
				owned := 0
				for _, pid := range c.IDs() {
					p, _ := c.get(pid)
					for deadline := time.Now().Add(opTimeout); p.PeerCount() < 3 && time.Now().Before(deadline); {
						time.Sleep(time.Millisecond)
					}
					owned += p.Placement().OwnedCount(id)
				}
				if failed := writeKeys(c.WriteKey, 32); owned != 0 || failed != 0 {
					t.Fatalf("the passive replacement %v owns %d shards across the views, and %d of 32 writes failed", id, owned, failed)
				}
			}
		})
	}
}

// writeKeys writes keys 0..n-1 through write and counts the failures.
func writeKeys(write func(RegisterID, int64) error, n int) (failed int) {
	for k := RegisterID(0); k < RegisterID(n); k++ {
		if write(k, int64(k)) != nil {
			failed++
		}
	}
	return failed
}
