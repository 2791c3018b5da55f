// Quickstart: the façade end to end. Describe a 100-node Routeless
// Routing field with CBR traffic between two fixed nodes as one
// Scenario, build and score it — then score the same document again
// with a faults list (§4.3's duty-cycle crashes plus a roaming jammer)
// and compare what survived.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"routeless"
)

// src and dst are the traffic endpoints; the crashes spare them, as
// §4.3 spares "those that generate and receive CBR traffic".
const src, dst = 0, 99

// run builds the document with the given faults, routes 20 packets from
// src to dst, and reports what arrived.
func run(label string, faults []routeless.FaultSpec) {
	sc := routeless.Scenario{
		Seed: 42, N: 100, Width: 1000, Height: 1000, Range: 250,
		Placement: "uniform", Connected: true,
		Protocol: "routeless",
		Flows:    []routeless.Flow{{Src: src, Dst: dst, Start: 0.5}},
		Interval: 1, DataSize: 256,
		Duration: 20, // then a 5 s drain
		Faults:   faults,
	}
	m, err := routeless.Must(routeless.Build(sc)).Finish()
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-12s n%d → n%d: delivery %.2f, %.1f hops, %.1f ms\n",
		label, src, dst, m.Delivery, m.Hops, m.Delay*1e3)
}

func main() {
	// Clean run: no faults.
	run("clean", nil)

	// Same field, same seed, now under fire: every node but the two
	// endpoints is down 10% of the time, and a jammer roams the field.
	// The fault streams derive from the document's seed, so this run is
	// exactly reproducible too.
	run("under fire", []routeless.FaultSpec{
		{Kind: "crash", OffFraction: 0.10, Exclude: []int{src, dst}},
		{Kind: "jam", TxPowerDBm: 24.5},
	})
}
