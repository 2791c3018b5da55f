// Quickstart: the façade end to end. Build a 100-node field, install
// Routeless Routing, run CBR traffic between two corners — then do it
// again on the same field with a fault plan (duty-cycle crashes plus a
// roaming jammer) installed before the protocols, and compare what
// survived.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"routeless"
)

// run builds the field, installs the fault plan (none for an empty
// plan), routes 20 packets corner to corner, and reports delivery.
func run(label string, plan routeless.FaultPlan) {
	nw := routeless.Must(routeless.NewNetwork(routeless.NetworkConfig{
		N: 100, Rect: routeless.NewRect(1000, 1000), Seed: 42, EnsureConnected: true,
	}))
	routeless.Must(routeless.InstallFaults(nw, plan))
	nw.Install(func(n *routeless.Node) routeless.Protocol {
		return routeless.NewRouteless(routeless.RoutelessConfig{})
	})

	src, dst := corner(nw, 0, 0), corner(nw, 1000, 1000)
	delivered := 0
	nw.Nodes[dst].OnAppReceive = func(p *routeless.Packet) { delivered++ }

	cbr := routeless.NewCBR(nw.Nodes[src], dst, 1.0, 256)
	cbr.StartAt(0.5)
	nw.Run(20)
	cbr.Stop()
	nw.Run(25)

	if err := nw.CheckInvariants(); err != nil {
		panic(err)
	}
	fmt.Printf("%-12s n%d → n%d: %d/%d delivered\n", label, src, dst, delivered, cbr.Sent())
}

func main() {
	// Clean run: no faults.
	run("clean", nil)

	// Same field, same seed, now under fire: 10% duty-cycle crashes on
	// every node and a roaming jammer. The fault streams derive from the
	// network seed, so this run is exactly reproducible too.
	run("under fire", routeless.FaultPlan{
		routeless.Crash(0.10),
		routeless.Jam(24.5),
	})
}

// corner returns the node nearest (x, y).
func corner(nw *routeless.Network, x, y float64) routeless.NodeID {
	best, bestD := 0, 1e18
	for i, n := range nw.Nodes {
		dx, dy := n.Pos.X-x, n.Pos.Y-y
		if d := dx*dx + dy*dy; d < bestD {
			best, bestD = i, d
		}
	}
	return routeless.NodeID(best)
}
