// Quickstart: a regular register in a simulated dynamic system.
//
// Builds a 20-process synchronous system with constant churn below the
// paper's bound, writes, reads, joins a fresh process, and verifies the
// whole recorded execution against the regular-register specification.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"churnreg"
)

func main() {
	const delta = 5
	// Stay well below the synchronous churn bound 1/(3δ).
	c, err := churnreg.NewSimCluster(
		churnreg.WithN(20),
		churnreg.WithDelta(delta),
		churnreg.WithChurnRate(churnreg.SyncChurnBound(delta)/4),
		churnreg.WithProtocol(churnreg.Synchronous),
		churnreg.WithSeed(2024),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("system: n=%d, δ=%d, churn=%.4f (bound %.4f)\n",
		20, delta, churnreg.SyncChurnBound(delta)/4, churnreg.SyncChurnBound(delta))

	// Write and read while the population is being refreshed underneath.
	if err := c.Write(42); err != nil {
		log.Fatal(err)
	}
	v, err := c.Read()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t=%4d  wrote 42, read %d\n", c.Now(), v)

	// Let churn replace a chunk of the population.
	c.Run(500)
	fmt.Printf("t=%4d  after 500 ticks of churn: %d/%d processes active\n",
		c.Now(), c.ActiveCount(), c.Size())

	// A fresh process joins and — thanks to the join protocol — already
	// knows the value.
	id, err := c.Join()
	if err != nil {
		log.Fatal(err)
	}
	v2, err := c.ReadAt(id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t=%4d  process %v joined and reads %d\n", c.Now(), id, v2)

	// More writes; reads stay fresh.
	for i := int64(1); i <= 3; i++ {
		if err := c.Write(100 * i); err != nil {
			log.Fatal(err)
		}
		got, err := c.Read()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%4d  wrote %d, read %d\n", c.Now(), 100*i, got)
	}

	// The cluster recorded every operation; check them all.
	report := c.Check()
	fmt.Printf("\ncorrectness: %s\n", report)
	if !report.OK() {
		log.Fatal("check failed — this should be impossible below the churn bound")
	}
	fmt.Println("every read was a legal regular-register result ✓")
}
