// VANET example: the paper's mobile-node motivation, simulated.
//
// Vehicles drive through a roadside-hazard broadcast zone. The zone's
// hazard state (an accident code) is a regular register maintained by
// whatever vehicles are currently inside; a vehicle "joins" when it enters
// radio range — the paper explicitly models join as entering the
// geographical reception zone — and leaves when it drives out. The
// synchronous protocol fits: radio delivery within the zone has a known
// bound δ, and reads must be instant (a driver alert cannot wait).
//
// Run with: go run ./examples/vanet
package main

import (
	"fmt"
	"log"

	"churnreg"
)

type hazard struct {
	code int64
	desc string
}

func main() {
	const (
		delta = 8 // radio round bound within the zone, in ticks
		n     = 12
	)
	zone, err := churnreg.NewSimCluster(
		churnreg.WithN(n),
		churnreg.WithDelta(delta),
		// Vehicles flow through the zone continuously; keep the flow
		// under the protocol's churn bound 1/(3δ).
		churnreg.WithChurnRate(churnreg.SyncChurnBound(delta)*0.5),
		churnreg.WithProtocol(churnreg.Synchronous),
		churnreg.WithSeed(99),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("hazard zone: %d vehicles in range, δ=%d, churn %.4f (bound %.4f)\n\n",
		n, delta, churnreg.SyncChurnBound(delta)*0.5, churnreg.SyncChurnBound(delta))

	hazards := []hazard{
		{1, "obstacle on lane 2"},
		{2, "black ice reported"},
		{3, "accident cleared — all lanes open"},
	}
	for _, h := range hazards {
		// A vehicle that witnesses the event writes the hazard state.
		if err := zone.Write(h.code); err != nil {
			log.Fatalf("hazard write: %v", err)
		}
		fmt.Printf("t=%4d  witness broadcasts: %q\n", zone.Now(), h.desc)

		// Traffic flows: vehicles leave the zone, new ones enter. Each
		// entering vehicle runs the join protocol (δ listen + inquiry).
		zone.Run(100)
		car, err := zone.Join()
		if err != nil {
			log.Fatalf("vehicle entering zone: %v", err)
		}
		// Its dashboard alert is a FAST read: purely local, zero messages
		// — the §3 protocol's design point.
		code, err := zone.ReadAt(car)
		if err != nil {
			log.Fatalf("dashboard read: %v", err)
		}
		fmt.Printf("t=%4d  vehicle %v entered; dashboard shows hazard code %d (want %d)\n",
			zone.Now(), car, code, h.code)
		if code != h.code {
			log.Fatal("entering vehicle read a stale hazard state")
		}
	}

	report := zone.Check()
	fmt.Printf("\ncorrectness over the whole run: %s\n", report)
	if !report.OK() {
		log.Fatal("check failed")
	}
	fmt.Println("every dashboard alert showed a legal register state ✓")
}
