package churnreg_test

import (
	"errors"
	"testing"

	"churnreg"
)

func TestSimClusterWriterFailoverAfterLeave(t *testing.T) {
	c, err := churnreg.NewSimCluster(churnreg.WithN(6), churnreg.WithDelta(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(1); err != nil {
		t.Fatal(err)
	}
	// Evict every process one at a time except two, writing in between:
	// the cluster must keep electing live writers.
	ids := c.ActiveIDs()
	for i, id := range ids[:4] {
		c.Leave(id)
		c.Run(20)
		if err := c.Write(int64(10 + i)); err != nil {
			t.Fatalf("write after leaving %v: %v", id, err)
		}
	}
	v, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v != 13 {
		t.Fatalf("read %d, want 13", v)
	}
	if rep := c.Check(); !rep.OK() {
		t.Fatalf("failover broke regularity: %s", rep)
	}
}

func TestSimClusterReadAtAbsentProcess(t *testing.T) {
	c, err := churnreg.NewSimCluster(churnreg.WithN(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(999); !errors.Is(err, churnreg.ErrNoActiveProcess) {
		t.Fatalf("ReadAt(absent) = %v, want ErrNoActiveProcess", err)
	}
}

func TestSimClusterJoinWithESyncUnderChurn(t *testing.T) {
	const delta = 5
	const n = 12
	c, err := churnreg.NewSimCluster(
		churnreg.WithN(n),
		churnreg.WithDelta(delta),
		churnreg.WithProtocol(churnreg.EventuallySynchronous),
		churnreg.WithChurnRate(churnreg.ESyncChurnBound(delta, n)),
		churnreg.WithMinLifetime(3*delta),
		churnreg.WithSeed(21),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(500); err != nil {
		t.Fatal(err)
	}
	c.Run(400)
	for i := 0; i < 3; i++ {
		id, err := c.Join()
		if err != nil {
			t.Fatalf("join %d under churn: %v", i, err)
		}
		v, err := c.ReadAt(id)
		if err != nil {
			t.Fatalf("read at joiner: %v", err)
		}
		if v != 500 {
			t.Fatalf("joiner read %d, want 500", v)
		}
		c.Run(100)
	}
	if rep := c.Check(); !rep.OK() {
		t.Fatalf("violations: %s", rep)
	}
}

func TestSimClusterNowAdvancesOnlyWhenDriven(t *testing.T) {
	c, err := churnreg.NewSimCluster(churnreg.WithN(4))
	if err != nil {
		t.Fatal(err)
	}
	if c.Now() != 0 {
		t.Fatalf("fresh cluster at t=%d", c.Now())
	}
	c.Run(37)
	if c.Now() != 37 {
		t.Fatalf("Now = %d after Run(37)", c.Now())
	}
	before := c.Now()
	_ = before
	// Operations advance time only as far as needed.
	if err := c.Write(1); err != nil {
		t.Fatal(err)
	}
	if c.Now() < 38 || c.Now() > 37+20 {
		t.Fatalf("write advanced clock to %d", c.Now())
	}
}
