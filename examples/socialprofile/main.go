// Social-profile example: the paper's motivating "social network" setting
// on the real-time runtime, using the keyed register namespace.
//
// A user's profile is several shared fields — status, location, mood —
// each its own register in the cluster's keyed namespace, replicated
// across whatever peers happen to be online. Peers come and go (churn);
// the eventually synchronous protocol keeps every field readable without
// anyone knowing message delay bounds, and a joining peer recovers the
// WHOLE profile through its single join: each join reply carries a
// snapshot of every register the replier holds, so one INQUIRY broadcast
// suffices no matter how many fields the profile grows. Everything here
// runs over real TCP sockets (NetCluster), not the simulator: every peer
// owns a loopback listener and the profile updates travel through the
// internal/wire binary codec.
//
// Run with: go run ./examples/socialprofile
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"churnreg"
)

// Profile fields: one register per field. Field keys are just small
// integers here; a production deployment would hash/intern field names.
const (
	fieldStatus   = churnreg.RegisterID(0)
	fieldLocation = churnreg.RegisterID(1)
	fieldMood     = churnreg.RegisterID(2)
)

var fieldNames = map[churnreg.RegisterID]string{
	fieldStatus:   "status",
	fieldLocation: "location",
	fieldMood:     "mood",
}

// Value tables: each register stores an index into its field's table
// (the library's value domain is int64 — richer payloads intern the same
// way).
var (
	statuses = []string{
		"☕ getting coffee",
		"🚲 cycling to work",
		"💻 deep in code review",
		"🍜 lunch break",
		"🎧 focus mode",
	}
	locations = []string{"home", "office", "café", "train", "park"}
	moods     = []string{"🙂", "🤔", "🚀", "😴", "🎉"}
	tables    = map[churnreg.RegisterID][]string{
		fieldStatus:   statuses,
		fieldLocation: locations,
		fieldMood:     moods,
	}
)

func main() {
	cluster, err := churnreg.NewNetCluster(
		churnreg.WithN(7),
		churnreg.WithDelta(25), // 25ms δ budget: real timers have slop
		churnreg.WithTick(time.Millisecond),
		churnreg.WithProtocol(churnreg.EventuallySynchronous),
		churnreg.WithOperationTimeout(10*time.Second),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	fmt.Println("7 peers online, replicating @gopher's profile — one register per field")

	rng := rand.New(rand.NewSource(7))
	for round := range statuses {
		// The user updates the whole profile, one keyed write per field...
		for _, field := range []churnreg.RegisterID{fieldStatus, fieldLocation, fieldMood} {
			v := int64(round % len(tables[field]))
			if err := cluster.WriteKey(field, v); err != nil {
				log.Fatalf("%s update: %v", fieldNames[field], err)
			}
		}
		// ...while the peer set churns: one peer drops without a goodbye,
		// a new one joins and must learn EVERY field through its single
		// join.
		ids := cluster.IDs()
		victim := ids[rng.Intn(len(ids))]
		if err := cluster.Kill(victim); err == nil {
			fmt.Printf("  peer %v went offline\n", victim)
		}
		joined, err := cluster.Join()
		if err != nil {
			log.Fatalf("peer join: %v", err)
		}
		// The fresh peer reads the full profile it learned while joining.
		fmt.Printf("round %d: fresh peer %v sees", round, joined)
		for _, field := range []churnreg.RegisterID{fieldStatus, fieldLocation, fieldMood} {
			v, err := cluster.ReadKeyAt(joined, field)
			if err != nil {
				log.Fatalf("read %s at fresh peer: %v", fieldNames[field], err)
			}
			want := int64(round % len(tables[field]))
			if v != want {
				log.Fatalf("fresh peer saw stale %s %d, want %d", fieldNames[field], v, want)
			}
			fmt.Printf("  %s=%q", fieldNames[field], tables[field][v])
		}
		fmt.Printf("  (%d peers online)\n", cluster.Size())
	}
	fmt.Println("all fresh peers recovered the full profile from one join despite churn ✓")
}
