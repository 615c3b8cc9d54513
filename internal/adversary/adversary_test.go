package adversary_test

import (
	"testing"

	"churnreg/internal/adversary"
	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/esyncreg"
	"churnreg/internal/netsim"
	"churnreg/internal/sim"
	"churnreg/internal/syncreg"
)

func TestTurnoverDelaysExceedTurnover(t *testing.T) {
	m := adversary.TurnoverDelays(0.02, 2) // turnover 50, delay 100
	rng := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		d := m.Delay(rng, 1, 2, 0, core.KindWrite)
		if d != 100 {
			t.Fatalf("delay = %d, want 100", d)
		}
	}
}

func TestTurnoverDelaysClamps(t *testing.T) {
	m := adversary.TurnoverDelays(0.5, 0.1) // slack < 1 clamped to 1 → 2
	if d := m.Delay(sim.NewRNG(1), 1, 2, 0, core.KindAck); d < 1 {
		t.Fatalf("delay = %d, want >= 1", d)
	}
}

func TestBrokenDeltaDelaysStretchOnlyWrites(t *testing.T) {
	m := adversary.BrokenDeltaDelays(5, 10)
	rng := sim.NewRNG(2)
	for i := 0; i < 200; i++ {
		if d := m.Delay(rng, 1, 2, 0, core.KindWrite); d != 50 {
			t.Fatalf("WRITE delay = %d, want 50", d)
		}
		if d := m.Delay(rng, 1, 2, 0, core.KindInquiry); d < 1 || d > 5 {
			t.Fatalf("INQUIRY delay = %d, want within δ", d)
		}
		if d := m.Delay(rng, 1, 2, 0, core.KindReply); d < 1 || d > 5 {
			t.Fatalf("REPLY delay = %d, want within δ", d)
		}
	}
}

// TestTargetedStarvationDeniesJoin shows the adversary needs only one
// victim: a joiner whose inbound traffic is delayed indefinitely never
// completes, while the rest of the system runs normally.
func TestTargetedStarvationDeniesJoin(t *testing.T) {
	const delta = 5
	// The victim will be p6 (5 bootstrap processes): everything addressed
	// to it is held back 2^20 ticks.
	starve := netsim.ScriptedDelayModel{
		Base:      netsim.SynchronousModel{Delta: delta},
		Overrides: map[netsim.Route]sim.Duration{{To: 6}: 1 << 20},
	}
	sys, err := dynsys.New(dynsys.Config{
		N:       5,
		Delta:   delta,
		Model:   starve,
		Factory: esyncreg.Factory(esyncreg.Options{}),
		Seed:    1,
		Initial: core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, victim := sys.Spawn() // p6
	_, bystander := sys.Spawn()
	if err := sys.RunFor(200 * delta); err != nil {
		t.Fatal(err)
	}
	if victim.Active() {
		t.Fatal("starved joiner completed its join")
	}
	if !bystander.Active() {
		t.Fatal("bystander join failed; adversary not targeted")
	}
}

// TestBrokenDeltaBreaksSynchronousSafety is the E5 safety face in
// miniature: a single write under stretched WRITE delays followed by a
// join and a read yields a stale result.
func TestBrokenDeltaBreaksSynchronousSafety(t *testing.T) {
	const delta = 5
	sys, err := dynsys.New(dynsys.Config{
		N:       3,
		Delta:   delta,
		Model:   adversary.BrokenDeltaDelays(delta, 20),
		Factory: syncreg.Factory(syncreg.Options{}),
		Seed:    1,
		Initial: core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	writer := sys.Node(1).(*syncreg.Node)
	done := false
	if err := writer.Write(0, 1, func(core.VersionedValue, error) { done = true }); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(delta); err != nil { // write "returns" at δ
		t.Fatal(err)
	}
	if !done {
		t.Fatal("write did not return after δ")
	}
	// The writer departs; its WRITE messages are still in flight (delay
	// 20δ). A joiner now inquires into an uninformed system.
	sys.KillProcess(1)
	_, joiner := sys.Spawn()
	if err := sys.RunFor(4 * delta); err != nil {
		t.Fatal(err)
	}
	if !joiner.Active() {
		t.Fatal("join did not complete")
	}
	v, err := readLocal(joiner.(*syncreg.Node))
	if err != nil {
		t.Fatal(err)
	}
	if v.SN != 0 {
		t.Fatalf("expected the stale read (sn=0) the impossibility predicts, got %v", v)
	}
}

// readLocal runs a local read of register 0, which completes before Read
// returns; ⊥ with the error when the node refuses it.
func readLocal(n core.Ops) (core.VersionedValue, error) {
	v := core.Bottom()
	err := n.Read(0, func(got core.VersionedValue, _ error) { v = got })
	return v, err
}
