package esyncreg

// Additional unit coverage for quorum bookkeeping edge paths.

import (
	"slices"
	"testing"

	"churnreg/internal/core"
)

func TestReadMergeUpdatesLocalRegister(t *testing.T) {
	n, _ := newActive(5, Options{})
	if err := n.Read(0, ignoreRead); err != nil {
		t.Fatal(err)
	}
	n.Deliver(1, reply(1, 40, 4, 1))
	n.Deliver(2, reply(2, 0, 0, 1))
	n.Deliver(3, reply(3, 0, 0, 1))
	// Line 06: the read refreshes register_i itself, not just the result.
	if v := n.Snapshot(); v.SN != 4 || v.Val != 40 {
		t.Fatalf("register after read = %v, want merged ⟨40,#4⟩", v)
	}
}

func TestSameReplierUpgradesWithinOneRead(t *testing.T) {
	n, _ := newActive(5, Options{})
	if err := n.Read(0, ignoreRead); err != nil {
		t.Fatal(err)
	}
	// The same process answers twice (direct + deferred): counted once for
	// the quorum, and the max value wins.
	n.Deliver(1, reply(1, 10, 1, 1))
	n.Deliver(1, reply(1, 90, 9, 1))
	rr := slices.Collect(opOn(n, core.DefaultRegister).round.Values)
	if len(rr) != 1 {
		t.Fatalf("one replier counted %d times", len(rr))
	}
	if rr[0].SN != 9 {
		t.Fatalf("kept %v, want the replier's max", rr[0])
	}
}

func TestListenersAckWrites(t *testing.T) {
	// Even a not-yet-active (listening) process ACKs WRITE deliveries —
	// Figure 6 lines 06-08 run "at any process", which is part of what
	// makes writes live under joins.
	n, env := newJoining(5, Options{})
	env.sent = nil
	n.Deliver(9, &core.WriteMsg{From: 9, Value: core.VersionedValue{Val: 1, SN: 1}})
	found := false
	for _, s := range env.sent {
		if a, ok := s.msg.(*core.AckMsg); ok && s.to == 9 && a.SN == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("listening process did not ACK the WRITE: %v", env.sent)
	}
}

func TestWriteAckQuorumCountsDistinctProcesses(t *testing.T) {
	n, _ := newActive(5, Options{})
	if err := n.Write(0, 3, ignoreWrite); err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.ProcessID{1, 2, 3} {
		n.Deliver(p, reply(p, 0, 0, 1)) // embedded read quorum
	}
	// Duplicate ACKs from one process must not satisfy the quorum.
	n.Deliver(1, &core.AckMsg{From: 1, SN: 1})
	n.Deliver(1, &core.AckMsg{From: 1, SN: 1})
	n.Deliver(1, &core.AckMsg{From: 1, SN: 1})
	if opOn(n, core.DefaultRegister) == nil {
		t.Fatal("triplicate ACKs from one process completed the write")
	}
	n.Deliver(2, &core.AckMsg{From: 2, SN: 1})
	n.Deliver(3, &core.AckMsg{From: 3, SN: 1})
	if opOn(n, core.DefaultRegister) != nil {
		t.Fatal("write did not complete on a true majority")
	}
}

func TestDLPrevDedup(t *testing.T) {
	n, _ := newJoining(5, Options{})
	n.Deliver(7, &core.DLPrevMsg{From: 7, Op: 2})
	n.Deliver(7, &core.DLPrevMsg{From: 7, Op: 2})
	n.Deliver(7, &core.DLPrevMsg{From: 7, Op: 3})
	if len(n.dlPrevList) != 2 {
		t.Fatalf("dl_prev entries = %d, want 2 (distinct rsn)", len(n.dlPrevList))
	}
}

func TestStatsCounters(t *testing.T) {
	n, _ := newActive(5, Options{})
	n.Deliver(7, &core.InquiryMsg{From: 7, Op: 0})
	n.Deliver(8, &core.ReadMsg{From: 8, Op: 1})
	n.Deliver(9, &core.WriteMsg{From: 9, Value: core.VersionedValue{Val: 1, SN: 1}})
	s := n.Stats()
	if s.RepliesSent != 2 {
		t.Fatalf("RepliesSent = %d, want 2", s.RepliesSent)
	}
	if s.AcksSent != 1 {
		t.Fatalf("AcksSent = %d, want 1", s.AcksSent)
	}
}
