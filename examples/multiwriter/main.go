// Multi-writer example: the paper's §7 open question — "permit any
// process to write at any time" — answered for the synchronous model with
// the write-token extension.
//
// Several operators of a sensor network take turns publishing calibration
// values. Each acquires the write token (heartbeat lease with
// deterministic claim resolution), writes through the §3 register, and
// releases. The token serializes writers, so the register's one-writer
// discipline — and therefore regularity — is preserved; when a token
// holder dies, the token is reclaimed after the staleness timeout.
//
// Run with: go run ./examples/multiwriter
package main

import (
	"fmt"
	"log"

	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/multiwriter"
	"churnreg/internal/netsim"
	"churnreg/internal/spec"
)

const delta = 5

func main() {
	sys, err := dynsys.New(dynsys.Config{
		N:       6,
		Delta:   delta,
		Model:   netsim.SynchronousModel{Delta: delta},
		Factory: multiwriter.Factory(),
		Seed:    3,
		Initial: core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		log.Fatal(err)
	}
	history := spec.NewHistory(core.VersionedValue{Val: 0, SN: 0})

	acquire := func(id core.ProcessID) *multiwriter.Node {
		n := sys.Node(id).(*multiwriter.Node)
		won := false
		if err := n.Acquire(func(ok bool) { won = ok }); err != nil {
			log.Fatalf("acquire %v: %v", id, err)
		}
		_ = sys.RunFor(3 * delta)
		if !won {
			log.Fatalf("operator %v failed to win an uncontended token", id)
		}
		return n
	}

	fmt.Println("six operators sharing one calibration register via the write token")
	for round := 0; round < 6; round++ {
		id := core.ProcessID(round + 1)
		op := acquire(id)
		wOp := history.BeginWrite(id, sys.Now())
		val := core.Value(500 + round)
		if err := op.Write(core.DefaultRegister, val, func(v core.VersionedValue, _ error) {
			history.CompleteWrite(wOp, sys.Now(), v)
		}); err != nil {
			log.Fatal(err)
		}
		_ = sys.RunFor(delta)
		fmt.Printf("t=%4d  operator %v published calibration %d\n", sys.Now(), id, val)
		op.Release()
		_ = sys.RunFor(2 * delta)
	}

	// Contention round: two operators claim simultaneously; exactly one
	// may win.
	a := sys.Node(1).(*multiwriter.Node)
	b := sys.Node(2).(*multiwriter.Node)
	var aWon, bWon bool
	_ = a.Acquire(func(ok bool) { aWon = ok })
	_ = b.Acquire(func(ok bool) { bWon = ok })
	_ = sys.RunFor(4 * delta)
	fmt.Printf("contention: operator 1 won=%v, operator 2 won=%v (exactly one must win)\n", aWon, bWon)
	if aWon == bWon {
		log.Fatal("token contention produced two winners or none")
	}

	// Everyone still reads the last calibration — locally and instantly.
	reader := sys.Node(5).(*multiwriter.Node)
	rOp := history.BeginRead(5, sys.Now())
	var v core.VersionedValue
	if err := reader.Read(core.DefaultRegister, func(got core.VersionedValue, _ core.ProcessID, _ error) { v = got }); err != nil {
		log.Fatal(err)
	}
	history.CompleteRead(rOp, sys.Now(), v)
	fmt.Printf("operator 5 reads calibration %d (sequence #%d) locally\n", int64(v.Val), int64(v.SN))

	if err := history.ValidateWrites(); err != nil {
		log.Fatalf("write discipline broken: %v", err)
	}
	if viols := history.CheckRegular(); len(viols) != 0 {
		log.Fatalf("regularity violated: %v", viols[0])
	}
	fmt.Println("rotating writers preserved the one-writer discipline and regularity ✓")
}
