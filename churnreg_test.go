package churnreg_test

import (
	"testing"
	"time"

	"churnreg"
)

func TestSimClusterQuickstartFlow(t *testing.T) {
	for _, p := range []churnreg.Protocol{churnreg.Synchronous, churnreg.EventuallySynchronous} {
		t.Run(p.String(), func(t *testing.T) {
			c, err := churnreg.NewSimCluster(
				churnreg.WithN(10),
				churnreg.WithDelta(5),
				churnreg.WithProtocol(p),
			)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Write(42); err != nil {
				t.Fatalf("Write: %v", err)
			}
			v, err := c.Read()
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if v != 42 {
				t.Fatalf("Read = %d, want 42", v)
			}
			id, err := c.Join()
			if err != nil {
				t.Fatalf("Join: %v", err)
			}
			v2, err := c.ReadAt(id)
			if err != nil {
				t.Fatalf("ReadAt joiner: %v", err)
			}
			if v2 != 42 {
				t.Fatalf("joiner read %d, want 42", v2)
			}
			rep := c.Check()
			if !rep.OK() {
				t.Fatalf("check failed: %s", rep)
			}
			if rep.Reads != 2 || rep.Writes != 1 {
				t.Fatalf("report counts wrong: %s", rep)
			}
		})
	}
}

// TestNetClusterQuickstartFlow is the quickstart over loopback TCP,
// through the public API only: the joiner reads the written value, and a
// process that has left serves nothing more.
func TestNetClusterQuickstartFlow(t *testing.T) {
	c, err := churnreg.NewNetCluster(
		churnreg.WithN(5),
		churnreg.WithDelta(20),
		churnreg.WithTick(time.Millisecond),
		churnreg.WithProtocol(churnreg.EventuallySynchronous),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(31); err != nil {
		t.Fatalf("Write: %v", err)
	}
	v, err := c.Read()
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if v != 31 {
		t.Fatalf("Read = %d, want 31", v)
	}
	id, err := c.Join()
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	v2, err := c.ReadAt(id)
	if err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if v2 != 31 {
		t.Fatalf("joiner read %d, want 31", v2)
	}
	if err := c.Leave(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(id); err == nil {
		t.Fatal("read on departed process succeeded")
	}
}

func TestSimClusterUnderChurn(t *testing.T) {
	c, err := churnreg.NewSimCluster(
		churnreg.WithN(20),
		churnreg.WithDelta(5),
		churnreg.WithChurnRate(0.01), // well under 1/(3δ)=0.0667
		churnreg.WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := c.Write(int64(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		c.Run(30)
		v, err := c.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if v != int64(i) {
			t.Fatalf("read %d after write %d", v, i)
		}
	}
	if rep := c.Check(); !rep.OK() {
		t.Fatalf("violations under churn below the bound: %s", rep)
	}
	if c.Size() != 20 {
		t.Fatalf("population drifted: %d", c.Size())
	}
}

func TestSimClusterInitialValue(t *testing.T) {
	c, err := churnreg.NewSimCluster(churnreg.WithInitialValue(99))
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v != 99 {
		t.Fatalf("initial read = %d, want 99", v)
	}
}

func TestSimClusterGST(t *testing.T) {
	c, err := churnreg.NewSimCluster(
		churnreg.WithProtocol(churnreg.EventuallySynchronous),
		churnreg.WithN(6),
		churnreg.WithDelta(5),
		churnreg.WithGST(200, 50),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Operations during the asynchronous period still terminate (delays
	// are finite) and are always safe.
	if err := c.Write(5); err != nil {
		t.Fatalf("pre-GST write: %v", err)
	}
	v, err := c.Read()
	if err != nil {
		t.Fatalf("pre-GST read: %v", err)
	}
	if v != 5 {
		t.Fatalf("read %d, want 5", v)
	}
	if rep := c.Check(); !rep.OK() {
		t.Fatalf("GST run violated regularity: %s", rep)
	}
}

func TestSimClusterLeaveAndContinue(t *testing.T) {
	c, err := churnreg.NewSimCluster(churnreg.WithN(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(1); err != nil {
		t.Fatal(err)
	}
	ids := c.ActiveIDs()
	c.Leave(ids[len(ids)-1])
	c.Run(20)
	if c.ActiveCount() != 4 {
		t.Fatalf("active = %d after leave, want 4", c.ActiveCount())
	}
	v, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("read %d, want 1", v)
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []churnreg.Option
	}{
		{"zero n", []churnreg.Option{churnreg.WithN(0)}},
		{"zero delta", []churnreg.Option{churnreg.WithDelta(0)}},
		{"churn 1.0", []churnreg.Option{churnreg.WithChurnRate(1.0)}},
		{"bad protocol", []churnreg.Option{churnreg.WithProtocol(churnreg.Protocol(99))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := churnreg.NewSimCluster(tc.opts...); err == nil {
				t.Fatal("invalid options accepted")
			}
			if _, err := churnreg.NewNetCluster(tc.opts...); err == nil {
				t.Fatal("invalid net options accepted")
			}
		})
	}
}

func TestChurnBoundHelpers(t *testing.T) {
	if churnreg.SyncChurnBound(5) != 1.0/15 {
		t.Fatal("SyncChurnBound wrong")
	}
	if churnreg.ESyncChurnBound(5, 10) != 1.0/150 {
		t.Fatal("ESyncChurnBound wrong")
	}
	if churnreg.Synchronous.String() != "synchronous" ||
		churnreg.EventuallySynchronous.String() != "eventually-synchronous" ||
		churnreg.StaticABD.String() != "static-abd" {
		t.Fatal("protocol names wrong")
	}
}
