package churnreg

import (
	"testing"

	"churnreg/internal/core"
)

// TestSimCheckCatchesLostWrite forges a second process's write whose
// sequence number is not above one that completed before it started — a
// lost write. Regularity orders writes by sequence number and so cannot
// see it; Check's write-order half must.
func TestSimCheckCatchesLostWrite(t *testing.T) {
	c, err := NewSimCluster(WithN(5), WithDelta(5), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(1); v <= 2; v++ {
		if err := c.Write(v); err != nil {
			t.Fatal(err)
		}
	}
	if rep := c.Check(); !rep.OK() {
		t.Fatalf("honest history fails the check:\n%s", rep)
	}
	writer, err := c.writerFor(core.DefaultRegister)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(1)
	op := c.history.BeginWriteKey(writer+1, core.DefaultRegister, c.sys.Now())
	c.history.CompleteWrite(op, c.sys.Now()+1, core.VersionedValue{Val: 7, SN: 2})
	rep := c.Check()
	if rep.OK() || rep.WriteOrder == nil {
		t.Fatalf("lost write passes the check:\n%s", rep)
	}
	if len(rep.RegularViolations) != 0 {
		t.Fatalf("regularity alone should miss the lost write:\n%s", rep)
	}
}
