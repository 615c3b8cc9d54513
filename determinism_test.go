package churnreg_test

import (
	"fmt"
	"testing"

	"churnreg"
)

// TestSimClusterFullyDeterministic pins the public API's reproducibility
// promise: identical options ⇒ identical observable behaviour, including
// op results, timing, and membership. Each round changes the membership
// once: the synchronous input joins a process under churn; the sharded
// StaticABD input, which has no join protocol, removes its highest id, so
// its shards hand off between replica groups.
func TestSimClusterFullyDeterministic(t *testing.T) {
	join := func(c *churnreg.SimCluster) (churnreg.ProcessID, error) { return c.Join() }
	leave := func(c *churnreg.SimCluster) (churnreg.ProcessID, error) {
		ids := c.ActiveIDs()
		id := ids[len(ids)-1]
		c.Leave(id)
		return id, nil
	}
	inputs := []struct {
		name   string
		opts   []churnreg.Option
		member func(*churnreg.SimCluster) (churnreg.ProcessID, error)
	}{
		{"sync", []churnreg.Option{churnreg.WithProtocol(churnreg.Synchronous), churnreg.WithChurnRate(0.02)}, join},
		{"abd-sharded", []churnreg.Option{churnreg.WithProtocol(churnreg.StaticABD), churnreg.WithShards(4, 3)}, leave},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			run := func() string {
				c, err := churnreg.NewSimCluster(append([]churnreg.Option{
					churnreg.WithN(15),
					churnreg.WithDelta(5),
					churnreg.WithSeed(77),
				}, in.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				var transcript string
				for i := 0; i < 10; i++ {
					k := churnreg.RegisterID(i)
					if err := c.WriteKey(k, int64(i)); err != nil {
						t.Fatal(err)
					}
					v, err := c.ReadKey(k)
					if err != nil {
						t.Fatal(err)
					}
					id, err := in.member(c)
					if err != nil {
						t.Fatal(err)
					}
					transcript += fmt.Sprintf("t=%d k=%v v=%d member=%v active=%d;", c.Now(), k, v, id, c.ActiveCount())
					c.Run(25)
				}
				rep := c.Check()
				transcript += fmt.Sprintf("reads=%d writes=%d ok=%v", rep.Reads, rep.Writes, rep.OK())
				return transcript
			}
			a, b := run(), run()
			if a != b {
				t.Fatalf("same options diverged:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestProtocolsAgreeOnQuietSystem: with no churn and sequential ops, all
// three protocols must produce identical read results (they implement the
// same abstraction).
func TestProtocolsAgreeOnQuietSystem(t *testing.T) {
	values := []int64{5, 17, 4, 99}
	for _, p := range []churnreg.Protocol{churnreg.Synchronous, churnreg.EventuallySynchronous, churnreg.StaticABD} {
		t.Run(p.String(), func(t *testing.T) {
			c, err := churnreg.NewSimCluster(
				churnreg.WithN(9),
				churnreg.WithDelta(5),
				churnreg.WithProtocol(p),
			)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range values {
				if err := c.Write(v); err != nil {
					t.Fatal(err)
				}
				got, err := c.Read()
				if err != nil {
					t.Fatal(err)
				}
				if got != v {
					t.Fatalf("%v: read %d after writing %d", p, got, v)
				}
			}
			if rep := c.Check(); !rep.OK() {
				t.Fatalf("%v: %s", p, rep)
			}
		})
	}
}
