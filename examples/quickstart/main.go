// Quickstart: the façade's functional-options form, end to end. Build
// a 100-node field, install Routeless Routing, run CBR traffic between
// two corners — then do it again with a fault plan (duty-cycle crashes
// plus a roaming jammer) injected through the same options call, and
// compare what survived.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"routeless"
)

// run builds a field from the options, routes 20 packets corner to
// corner, and reports delivery.
func run(label string, opts ...routeless.Option) {
	nw := routeless.Must(routeless.NewNetwork(opts...))
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
	base := []routeless.Option{
		routeless.WithN(100),
		routeless.WithRect(routeless.NewRect(1000, 1000)),
		routeless.WithSeed(42),
		routeless.WithEnsureConnected(),
	}

	// Clean run: no faults.
	run("clean", base...)

	// Same field, same seed, now under fire: 10% duty-cycle crashes on
	// every node and a roaming jammer. The fault streams derive from the
	// network seed, so this run is exactly reproducible too.
	run("under fire", append(base, routeless.WithFaults(routeless.FaultPlan{
		routeless.Crash(0.10),
		routeless.Jam(24.5),
	}))...)
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
