package client

import (
	"runtime"
	"sync"
	"testing"

	"churnreg/internal/abd"
	"churnreg/internal/shard"
)

// TestServedOperationsLeaveNoGarbage ties the unit allocation counts
// (nettransport.TestServeForwardAllocs, wire.TestScannerZeroAllocs*) to a
// whole deployment, the one a regserve's resident set comes from: three
// in-process abd transports, 8 shards of 3 replicas, and a client, run
// 20,000 operations (one in ten a write) and this process's heap
// allocations are counted across all four. A served operation sends and
// receives every message from a lent record, so what remains per
// operation is the client's and the sockets' bookkeeping.
func TestServedOperationsLeaveNoGarbage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	// The ceiling comes from this test's own measurement on a 2-core
	// x86-64 Linux box: 0.01 mallocs per operation, and 8.01 (2 GCs in
	// the run) when every message sent or received was boxed, before
	// messages became lent records. Half a malloc leaves room for a redial
	// or a timer, never for a message box per operation.
	const ceiling = 0.5
	ts := startClusterOf(t, shard.Factory(abd.Factory()), 3, 8, 3, 0)
	c := dialClient(t, ts, Config{})
	const workers, ops = 4, 20000
	run := func(n int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < n; i += workers {
					var err error
					if key := int64(i % 64); i%10 == 0 {
						_, err = c.Write(key, int64(i))
					} else {
						_, err = c.Read(key)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	run(2000) // grow the buffers, the op tables and the free lists once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(ops)
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / ops
	t.Logf("%.2f mallocs per operation, %d GCs", perOp, after.NumGC-before.NumGC)
	if perOp > ceiling {
		t.Fatalf("%.2f mallocs per served operation, want at most %v", perOp, ceiling)
	}
}
