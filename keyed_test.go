package churnreg

// Acceptance coverage for the keyed register namespace: ReadKey/WriteKey
// over >= 64 concurrent keys under churn on the simulator, with exactly
// one join (one INQUIRY broadcast) per process no matter how many keys it
// serves, and per-key regularity holding throughout. White-box (package
// churnreg) so the tests can reach protocol node stats through the
// cluster internals. The real-time twin, TestNetKeyedNamespaceUnderChurn,
// is in netcluster_test.go.

import (
	"testing"

	"churnreg/internal/esyncreg"
	"churnreg/internal/syncreg"
)

const keyedTestKeys = 64

// assertOneJoinPerProcess walks the simulated cluster's active nodes and
// verifies the one-join-one-inquiry invariant: bootstrap processes never
// inquired, every later process inquired exactly once — regardless of how
// many registers it has served since.
func assertOneJoinPerProcess(t *testing.T, c *SimCluster, bootstrapN int) {
	t.Helper()
	joiners := 0
	for _, id := range c.sys.ActiveIDs() {
		var inquiries uint64
		switch n := c.sys.Node(id).(type) {
		case *syncreg.Node:
			inquiries = n.Stats().JoinInquiries
		case *esyncreg.Node:
			inquiries = n.Stats().JoinInquiries
		default:
			t.Fatalf("unexpected node type %T", n)
		}
		bootstrap := int64(id) <= int64(bootstrapN) // IDs allocate sequentially from 1
		switch {
		case bootstrap && inquiries != 0:
			t.Fatalf("bootstrap %v sent %d join inquiries, want 0", id, inquiries)
		case !bootstrap && inquiries != 1:
			t.Fatalf("joiner %v sent %d join inquiries, want exactly 1", id, inquiries)
		}
		if !bootstrap {
			joiners++
		}
	}
	if joiners == 0 {
		t.Fatal("churn produced no surviving joiner; invariant not exercised")
	}
}

// runKeyedChurnWorkload drives writes and reads over the whole namespace,
// interleaved with simulation time so churn keeps replacing processes.
func runKeyedChurnWorkload(t *testing.T, c *SimCluster, rounds int) {
	t.Helper()
	val := int64(0)
	for round := 0; round < rounds; round++ {
		for k := 0; k < keyedTestKeys; k++ {
			val++
			if err := c.WriteKey(RegisterID(k), val); err != nil {
				t.Fatalf("round %d write key %d: %v", round, k, err)
			}
		}
		c.Run(40)
		for k := 0; k < keyedTestKeys; k++ {
			if _, err := c.ReadKey(RegisterID(k)); err != nil {
				t.Fatalf("round %d read key %d: %v", round, k, err)
			}
		}
	}
}

func TestSimKeyedNamespaceUnderChurnSynchronous(t *testing.T) {
	c, err := NewSimCluster(
		WithN(20),
		WithDelta(5),
		WithChurnRate(0.02), // below the sync bound 1/(3δ) ≈ 0.066
		WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	runKeyedChurnWorkload(t, c, 3)

	// A fresh joiner learns the ENTIRE namespace from its single join:
	// every key's read at the newcomer returns the last written value.
	id, err := c.Join()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keyedTestKeys; k++ {
		want := int64(2*keyedTestKeys + k + 1) // last round's value for key k
		got, err := c.ReadKeyAt(id, RegisterID(k))
		if err != nil {
			t.Fatalf("joiner read key %d: %v", k, err)
		}
		if got != want {
			t.Fatalf("joiner read key %d = %d, want %d", k, got, want)
		}
	}

	rep := c.Check()
	if !rep.OK() {
		t.Fatalf("per-key regularity violated:\n%s", rep)
	}
	if rep.Writes < 3*keyedTestKeys || rep.Reads < 3*keyedTestKeys {
		t.Fatalf("workload too thin: %d writes, %d reads", rep.Writes, rep.Reads)
	}
	assertOneJoinPerProcess(t, c, 20)
}

func TestSimKeyedNamespaceUnderChurnEventuallySynchronous(t *testing.T) {
	c, err := NewSimCluster(
		WithN(10),
		WithDelta(5),
		WithProtocol(EventuallySynchronous),
		WithChurnRate(0.005), // near the esync bound 1/(3δn) with joiners protected young
		WithMinLifetime(60),
		WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	runKeyedChurnWorkload(t, c, 2)

	id, err := c.Join()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keyedTestKeys; k++ {
		want := int64(keyedTestKeys + k + 1)
		got, err := c.ReadKeyAt(id, RegisterID(k))
		if err != nil {
			t.Fatalf("joiner read key %d: %v", k, err)
		}
		if got != want {
			t.Fatalf("joiner read key %d = %d, want %d", k, got, want)
		}
	}

	rep := c.Check()
	if !rep.OK() {
		t.Fatalf("per-key regularity violated:\n%s", rep)
	}
	assertOneJoinPerProcess(t, c, 10)
}

func TestSimWriteBatchOneBroadcastManyKeys(t *testing.T) {
	c, err := NewSimCluster(WithN(10), WithDelta(5), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	batch := make(map[RegisterID]int64, keyedTestKeys)
	for k := 0; k < keyedTestKeys; k++ {
		batch[RegisterID(k)] = int64(1000 + k)
	}
	broadcastsBefore := c.sys.Network().Stats().Broadcasts
	if err := c.WriteBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := c.sys.Network().Stats().Broadcasts - broadcastsBefore; got != 1 {
		t.Fatalf("batch of %d keys used %d broadcasts, want 1", keyedTestKeys, got)
	}
	for k := 0; k < keyedTestKeys; k++ {
		v, err := c.ReadKey(RegisterID(k))
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(1000+k) {
			t.Fatalf("key %d = %d after batch, want %d", k, v, 1000+k)
		}
	}
	if rep := c.Check(); !rep.OK() {
		t.Fatalf("batch write broke regularity:\n%s", rep)
	}
}
