package churnreg

// Acceptance coverage for the concurrent operation engine in the
// deterministic simulator: N operations in flight on ONE key and across
// keys, through churn, with the spec checker passing per key and every
// node's operation table drained afterwards (no entry leaks after
// completion or invoker departure).

import (
	"errors"
	"testing"

	"churnreg/internal/core"
)

// TestSimPipelinedOpsOneKeyAndAcross drives bursts of pipelined writes
// and reads — eight deep on one key, plus one write per other key —
// under churn, then checks regularity per key and op-table reclamation.
func TestSimPipelinedOpsOneKeyAndAcross(t *testing.T) {
	c, err := NewSimCluster(
		WithN(10),
		WithDelta(5),
		WithProtocol(EventuallySynchronous),
		WithChurnRate(0.004),
		WithMinLifetime(60),
		WithSeed(23),
	)
	if err != nil {
		t.Fatal(err)
	}

	const hotKey = RegisterID(1)
	const depth = 8
	val := int64(0)
	for round := 0; round < 3; round++ {
		// One burst: depth pipelined writes to the hot key + one write to
		// each of 7 other keys, all in flight together.
		burst := make([]*PendingOp, 0, depth+7)
		var hotWrites []*PendingOp
		for i := 0; i < depth; i++ {
			val++
			p := c.StartWriteKey(hotKey, val)
			burst = append(burst, p)
			hotWrites = append(hotWrites, p)
		}
		for k := RegisterID(2); k <= 8; k++ {
			val++
			burst = append(burst, c.StartWriteKey(k, val))
		}
		if err := c.Await(burst...); err != nil {
			t.Fatalf("round %d write burst: %v", round, err)
		}
		// Pipelined writes to one key carry strictly increasing sequence
		// numbers in invocation order — the FIFO assignment contract.
		for i := 1; i < len(hotWrites); i++ {
			if hotWrites[i].SN() <= hotWrites[i-1].SN() {
				t.Fatalf("round %d: pipelined sns out of invocation order: %d then %d",
					round, hotWrites[i-1].SN(), hotWrites[i].SN())
			}
		}

		// Read burst: several nodes each pipeline two reads of the hot key
		// and one of a cold key, all concurrent with each other.
		ids := c.ActiveIDs()
		reads := make([]*PendingOp, 0, 3*len(ids))
		for i, id := range ids {
			if i >= 4 {
				break
			}
			reads = append(reads,
				c.StartReadKeyAt(id, hotKey),
				c.StartReadKeyAt(id, hotKey),
				c.StartReadKeyAt(id, RegisterID(2+i)))
		}
		if err := c.Await(reads...); err != nil {
			t.Fatalf("round %d read burst: %v", round, err)
		}
		c.Run(30) // let churn act between bursts
	}

	rep := c.Check()
	if !rep.OK() {
		t.Fatalf("per-key regularity violated:\n%s", rep)
	}
	if err := c.history.ValidateWrites(); err != nil {
		t.Fatalf("write discipline: %v", err)
	}
	if got := c.PendingOps(); got != 0 {
		t.Fatalf("op tables not reclaimed: %d entries pending after quiescence", got)
	}
	if rep.Writes < 3*(depth+7) || rep.Reads < 12 {
		t.Fatalf("workload too thin: %d writes, %d reads", rep.Writes, rep.Reads)
	}
}

// TestSimPipelinedOpReclaimedOnAbandon kills a reader mid-quorum-read:
// the operation fails (its invoker left — the paper's liveness only
// covers invokers that stay) and no table entry survives anywhere.
func TestSimPipelinedOpReclaimedOnAbandon(t *testing.T) {
	c, err := NewSimCluster(
		WithN(6),
		WithDelta(5),
		WithProtocol(EventuallySynchronous),
		WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	// A write keeps the namespace warm.
	if err := c.WriteKey(1, 42); err != nil {
		t.Fatal(err)
	}
	ids := c.ActiveIDs()
	reader := ids[len(ids)-1]
	p := c.StartReadKeyAt(reader, 1)
	// The invoker leaves before its quorum can assemble.
	c.Leave(reader)
	err = c.Await(p)
	if err == nil || p.Err() == nil {
		t.Fatalf("abandoned read reported success (err=%v)", err)
	}
	if _, verr := p.Value(); verr == nil {
		t.Fatal("abandoned read yielded a value")
	}
	c.Run(50) // drain in-flight traffic
	if got := c.PendingOps(); got != 0 {
		t.Fatalf("op tables leak after abandon: %d entries", got)
	}
	// The history records the op as abandoned, not completed.
	counts := c.history.Counts()
	if counts.ReadsAbandoned != 1 {
		t.Fatalf("abandoned reads = %d, want 1", counts.ReadsAbandoned)
	}
}

// TestSimRunDrivenHandleReleasesShield: a Start* handle may be driven
// with plain Run instead of Await — once it settles, its churn shield is
// released by the next simulation advance, not held for the rest of the
// run.
func TestSimRunDrivenHandleReleasesShield(t *testing.T) {
	c, err := NewSimCluster(
		WithN(6),
		WithDelta(5),
		WithProtocol(EventuallySynchronous),
		WithSeed(9),
	)
	if err != nil {
		t.Fatal(err)
	}
	ids := c.ActiveIDs()
	reader := ids[len(ids)-1]
	p := c.StartReadKeyAt(reader, 1)
	for i := 0; i < 200 && !p.Done(); i++ {
		c.Run(1)
	}
	if !p.Done() {
		t.Fatal("read never settled under Run")
	}
	if _, err := p.Value(); err != nil {
		t.Fatalf("read value: %v", err)
	}
	if len(c.shielded) != 0 {
		t.Fatalf("shields leaked after Run-driven completion: %v", c.shielded)
	}
}

// TestSimPipelineBackpressure fills a node's operation table and checks
// the relaxed ErrOpInProgress contract: rejection means "table full",
// nothing else, and draining reopens the node.
func TestSimPipelineBackpressure(t *testing.T) {
	c, err := NewSimCluster(
		WithN(6),
		WithDelta(5),
		WithProtocol(EventuallySynchronous),
		WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	id := c.ActiveIDs()[0]
	node := c.sys.Node(id).(core.Ops)
	ignore := func(core.VersionedValue, error) {}
	issued := 0
	for {
		err := node.Read(1, ignore)
		if errors.Is(err, core.ErrOpInProgress) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if issued++; issued > core.MaxInFlightOps {
			t.Fatalf("no backpressure after %d in-flight ops", issued)
		}
	}
	if issued != core.MaxInFlightOps {
		t.Fatalf("backpressure at %d ops, want %d", issued, core.MaxInFlightOps)
	}
	c.Run(200) // quorums assemble, table drains
	if got := c.PendingOps(); got != 0 {
		t.Fatalf("table did not drain: %d pending", got)
	}
	if err := node.Read(1, ignore); err != nil {
		t.Fatalf("read after drain = %v, want nil", err)
	}
	c.Run(100)
}
