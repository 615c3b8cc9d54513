package workload_test

import (
	"testing"

	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/esyncreg"
	"churnreg/internal/netsim"
	"churnreg/internal/spec"
	"churnreg/internal/syncreg"
	"churnreg/internal/workload"
)

const delta = 5

func build(t *testing.T, factory core.NodeFactory, churnRate float64, cfg workload.Config) (*dynsys.System, *spec.History, *workload.Runner) {
	t.Helper()
	guard := &workload.Guard{}
	sys, err := dynsys.New(dynsys.Config{
		N:         10,
		Delta:     delta,
		Model:     netsim.SynchronousModel{Delta: delta},
		Factory:   factory,
		Seed:      11,
		ChurnRate: churnRate,
		Protect:   guard.Protects,
		Initial:   core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := spec.NewHistory(core.VersionedValue{Val: 0, SN: 0})
	r := workload.New(sys, h, guard, cfg)
	r.Start()
	return sys, h, r
}

func TestWriterIssuesPeriodicWrites(t *testing.T) {
	sys, h, r := build(t, syncreg.Factory(syncreg.Options{}), 0, workload.Config{
		WritePeriod: 20,
		FirstValue:  100,
	})
	if err := sys.RunFor(200); err != nil {
		t.Fatal(err)
	}
	c := h.Counts()
	if c.WritesBegun < 9 || c.WritesBegun > 11 {
		t.Fatalf("writes begun = %d, want ~10", c.WritesBegun)
	}
	if c.WritesCompleted < c.WritesBegun-1 {
		t.Fatalf("writes completed = %d of %d", c.WritesCompleted, c.WritesBegun)
	}
	if err := h.ValidateWrites(); err != nil {
		t.Fatalf("write discipline broken: %v", err)
	}
	if r.Stats().WriteRounds == 0 {
		t.Fatal("no write rounds counted")
	}
}

func TestReadersRecordLocalReads(t *testing.T) {
	sys, h, _ := build(t, syncreg.Factory(syncreg.Options{}), 0, workload.Config{
		WritePeriod: 25,
		ReadPeriod:  10,
		ReadFanout:  3,
	})
	if err := sys.RunFor(300); err != nil {
		t.Fatal(err)
	}
	c := h.Counts()
	if c.ReadsCompleted < 80 {
		t.Fatalf("reads completed = %d, want ~90", c.ReadsCompleted)
	}
	if v := h.CheckRegular(); len(v) != 0 {
		t.Fatalf("sync protocol under no churn violated regularity: %v", v[0])
	}
}

func TestQuorumReadsComplete(t *testing.T) {
	sys, h, _ := build(t, esyncreg.Factory(esyncreg.Options{}), 0, workload.Config{
		WritePeriod: 50,
		ReadPeriod:  25,
		ReadFanout:  2,
	})
	if err := sys.RunFor(500); err != nil {
		t.Fatal(err)
	}
	c := h.Counts()
	if c.ReadsCompleted == 0 {
		t.Fatal("no quorum read completed")
	}
	if c.ReadsPending() > 2 {
		t.Fatalf("pending reads = %d at quiescence", c.ReadsPending())
	}
	if v := h.CheckRegular(); len(v) != 0 {
		t.Fatalf("esync protocol under no churn violated regularity: %v", v[0])
	}
}

func TestWriterProtectedFromChurn(t *testing.T) {
	sys, h, r := build(t, syncreg.Factory(syncreg.Options{}), 0.02, workload.Config{
		WritePeriod: 15,
		ReadPeriod:  10,
		ReadFanout:  2,
	})
	if err := sys.RunFor(1500); err != nil {
		t.Fatal(err)
	}
	if r.Stats().WriterHandoffs != 0 {
		t.Fatalf("protected writer was churned out %d times", r.Stats().WriterHandoffs)
	}
	if err := h.ValidateWrites(); err != nil {
		t.Fatalf("write discipline broken: %v", err)
	}
	c := h.Counts()
	if c.WritesCompleted < 90 {
		t.Fatalf("writes completed = %d, want ~100", c.WritesCompleted)
	}
}

func TestJoinReadProbesFire(t *testing.T) {
	sys, h, r := build(t, syncreg.Factory(syncreg.Options{}), 0.02, workload.Config{
		WritePeriod:   30,
		JoinReadProbe: true,
	})
	if err := sys.RunFor(1000); err != nil {
		t.Fatal(err)
	}
	if r.Stats().JoinProbes == 0 {
		t.Fatal("no join probes fired under churn")
	}
	c := h.Counts()
	if c.ReadsCompleted == 0 {
		t.Fatal("join probes recorded no reads")
	}
	if v := h.CheckRegular(); len(v) != 0 {
		t.Fatalf("join probes found violations below the churn bound: %v", v[0])
	}
}

func TestDepartingReaderAbandonsPendingRead(t *testing.T) {
	// Slow quorum reads + churn: some readers leave mid-read; their ops
	// must be abandoned, not counted as liveness failures.
	sys, h, _ := build(t, esyncreg.Factory(esyncreg.Options{}), 0.05, workload.Config{
		ReadPeriod: 5,
		ReadFanout: 3,
	})
	if err := sys.RunFor(2000); err != nil {
		t.Fatal(err)
	}
	c := h.Counts()
	if c.ReadsAbandoned == 0 {
		t.Skip("no reader departed mid-read at this seed; scenario not exercised")
	}
	if c.ReadsPending() > 5 {
		t.Fatalf("non-abandoned pending reads = %d", c.ReadsPending())
	}
}

func TestNoActiveReadersCounted(t *testing.T) {
	// A 1-process system where the only process is the writer: fanout
	// reads exclude the writer, so rounds find nobody.
	guard := &workload.Guard{}
	sys, err := dynsys.New(dynsys.Config{
		N:       1,
		Delta:   delta,
		Model:   netsim.SynchronousModel{Delta: delta},
		Factory: syncreg.Factory(syncreg.Options{}),
		Seed:    1,
		Protect: guard.Protects,
		Initial: core.VersionedValue{},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := spec.NewHistory(core.VersionedValue{})
	r := workload.New(sys, h, guard, workload.Config{ReadPeriod: 10})
	r.Start()
	if err := sys.RunFor(100); err != nil {
		t.Fatal(err)
	}
	if r.Stats().NoActiveReaders == 0 {
		t.Fatal("empty reader pool not counted")
	}
}

func TestSingleKeyConfigKeepsSeedBehaviour(t *testing.T) {
	// Every operation addresses key 0, the paper's one register.
	sys, h, _ := build(t, syncreg.Factory(syncreg.Options{}), 0.01, workload.Config{
		WritePeriod: 10,
		ReadPeriod:  5,
	})
	if err := sys.RunFor(500); err != nil {
		t.Fatal(err)
	}
	for _, op := range h.Ops() {
		if op.Reg != core.DefaultRegister {
			t.Fatalf("workload issued op on %v", op.Reg)
		}
	}
	if h.Counts().WritesCompleted == 0 {
		t.Fatal("no writes completed")
	}
}
