package churnreg

import (
	"errors"
	"sync"
	"testing"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/nettransport"
	"churnreg/internal/nodeops"
	"churnreg/internal/placement"
	"churnreg/internal/spec"
)

// TestFacadeOpsNeverRelay: both facades route every default operation
// with placement.View.Route, so on a quiet sharded cluster (abd, n=6,
// S=8, R=3) 64 WriteKey/ReadKey pairs and a WriteBatch that spans
// primaries all enter at replicas of their keys. An abd read entered
// anywhere else would merge the quorum's answer into that process's
// store, so no process may end up holding a written value of a key
// outside its groups; the simulator's history also names a replica as
// every read's invoker.
func TestFacadeOpsNeverRelay(t *testing.T) {
	opts := []Option{WithN(6), WithProtocol(StaticABD), WithShards(8, 3), WithOperationTimeout(10 * time.Second)}
	type facade interface {
		WriteKey(RegisterID, int64) error
		ReadKey(RegisterID) (int64, error)
		WriteBatch(map[RegisterID]int64) error
	}
	run := func(t *testing.T, c facade, view *placement.View, held func(func(core.ProcessID, core.Node))) {
		for k := RegisterID(0); k < 64; k++ {
			if err := c.WriteKey(k, int64(100+k)); err != nil {
				t.Fatalf("write %v: %v", k, err)
			}
			if v, err := c.ReadKey(k); err != nil || v != int64(100+k) {
				t.Fatalf("read %v = %d, %v; want %d", k, v, err, 100+k)
			}
		}
		batch := make(map[RegisterID]int64)
		primaries := make(map[core.ProcessID]bool)
		for k := RegisterID(64); len(primaries) < 2; k++ {
			batch[k] = int64(100 + k)
			primaries[view.Route(nil, k, 0)] = true
		}
		if err := c.WriteBatch(batch); err != nil {
			t.Fatalf("write batch: %v", err)
		}
		keys := 0
		held(func(id core.ProcessID, nd core.Node) {
			st := nd.(core.Stored).Store()
			for _, k := range st.Keys() {
				if st.Value(k, true).SN == 0 {
					continue // the initial value every process holds
				}
				keys++
				if !view.IsReplica(k, id) {
					t.Errorf("%v holds key %v = %v outside its group %v: a read entered there", id, k, st.Value(k, true), view.Group(k))
				}
			}
		})
		if keys == 0 {
			t.Fatal("no process holds any key")
		}
	}
	t.Run("sim", func(t *testing.T) {
		c, err := NewSimCluster(append(opts, WithDelta(5), WithSeed(5))...)
		if err != nil {
			t.Fatal(err)
		}
		run(t, c, c.sys.Placement(), c.sys.ForEachNode)
		for _, op := range c.history.Ops() {
			if op.Kind == spec.OpRead && !c.sys.Placement().IsReplica(op.Reg, op.Proc) {
				t.Fatalf("read of %v entered at %v, outside its group %v", op.Reg, op.Proc, c.sys.Placement().Group(op.Reg))
			}
		}
	})
	t.Run("net", func(t *testing.T) {
		c, err := NewNetCluster(append(opts, WithDelta(10), WithTick(time.Millisecond))...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		run(t, c, c.view(c.IDs()), func(fn func(core.ProcessID, core.Node)) {
			for _, id := range c.IDs() {
				tr, err := c.get(id)
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.Invoke(func(nd core.Node) { fn(id, nd) }); err != nil {
					t.Fatal(err)
				}
			}
		})
	})
}

// TestSimUnshardedWriterIsLowestActive: unsharded, every write — single
// or batched — enters at the lowest active id, Route's attempt 0, and
// churn never removes that process.
func TestSimUnshardedWriterIsLowestActive(t *testing.T) {
	c, err := NewSimCluster(WithN(10), WithDelta(5), WithChurnRate(0.02), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	writer := c.ActiveIDs()[0]
	highest := writer
	for i := 0; i < 40; i++ {
		if err := c.WriteKey(RegisterID(i%4), int64(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%10 == 9 {
			if err := c.WriteBatch(map[RegisterID]int64{5: int64(i), 6: int64(i)}); err != nil {
				t.Fatalf("write batch %d: %v", i, err)
			}
		}
		c.Run(20)
		ids := c.ActiveIDs()
		if ids[0] != writer {
			t.Fatalf("after write %d the lowest active id is %v, want %v: churn removed the writer", i, ids[0], writer)
		}
		highest = max(highest, ids[len(ids)-1])
	}
	if highest <= 10 {
		t.Fatalf("no process joined (highest id %v): the run had no churn", highest)
	}
	writes := 0
	for _, op := range c.history.Ops() {
		if op.Kind == spec.OpWrite {
			writes++
			if op.Proc != writer {
				t.Fatalf("write of %v entered at %v, want the lowest active id %v", op.Reg, op.Proc, writer)
			}
		}
	}
	if writes != 48 {
		t.Fatalf("history holds %d writes, want 48", writes)
	}
	if rep := c.Check(); !rep.OK() {
		t.Fatalf("check: %v", rep)
	}
}

// TestNetClusterWriterSuccessorUnderConcurrentWrites kills the unsharded
// writer while eight goroutines write key 0. No write may enter the
// successor sooner than 5δ after the writer left, by when the killed
// writer's last value has reached it; so no two acknowledged writes share
// a sequence number, and every number the successor assigns exceeds the
// last one the killed writer returned.
func TestNetClusterWriterSuccessorUnderConcurrentWrites(t *testing.T) {
	c, err := NewNetCluster(WithN(5), WithProtocol(EventuallySynchronous), WithDelta(10),
		WithTick(time.Millisecond), WithOperationTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	killed := c.WriterID()
	type acked struct {
		at core.ProcessID
		sn int64
	}
	var (
		mu    sync.Mutex
		acks  []acked
		moved time.Time // when the first write entered another process
	)
	record := func(tr *nettransport.Transport, k core.RegisterID, v core.Value, timeout time.Duration) error {
		if tr.ID() != killed {
			mu.Lock()
			if moved.IsZero() {
				moved = time.Now()
			}
			mu.Unlock()
		}
		vv, err := tr.WriteKey(k, v, timeout)
		if err == nil {
			mu.Lock()
			acks = append(acks, acked{tr.ID(), int64(vv.SN)})
			mu.Unlock()
		}
		return err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int64(g) * 1_000_000; ; v++ {
				select {
				case <-stop:
					return
				default:
				}
				err := c.write(core.DefaultRegister, core.Value(v), time.Now().Add(c.opts.opTimeout), record)
				if err != nil && !errors.Is(err, nettransport.ErrClosed) && !errors.Is(err, nodeops.ErrTimeout) {
					t.Errorf("write: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	left := time.Now()
	if err := c.Kill(killed); err != nil {
		t.Fatal(err)
	}
	// Writes in flight at the killed writer time out; then every writer
	// moves to the successor.
	successor := c.WriterID()
	bySuccessor := func() (n int) {
		mu.Lock()
		defer mu.Unlock()
		for _, a := range acks {
			if a.at == successor {
				n++
			}
		}
		return n
	}
	for deadline := time.Now().Add(10 * time.Second); bySuccessor() < 64 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if wait := 5 * time.Duration(c.opts.delta) * c.opts.tick; moved.Sub(left) < wait {
		t.Fatalf("a write entered process %v %v after the writer left, want at least 5δ = %v", successor, moved.Sub(left), wait)
	}
	var lastKilled int64
	seen := make(map[int64]core.ProcessID)
	for _, a := range acks {
		if at, dup := seen[a.sn]; dup {
			t.Fatalf("sn %d acknowledged by %v and by %v", a.sn, at, a.at)
		}
		seen[a.sn] = a.at
		if a.at == killed {
			lastKilled = max(lastKilled, a.sn)
		}
	}
	for _, a := range acks {
		if a.at == successor && a.sn <= lastKilled {
			t.Fatalf("successor %v assigned sn %d, not above the killed writer's last %d", successor, a.sn, lastKilled)
		}
	}
	if n := bySuccessor(); lastKilled == 0 || n == 0 {
		t.Fatalf("killed writer %v acknowledged up to sn %d and successor %v %d writes; want both to write", killed, lastKilled, successor, n)
	}
}
