// Mobility demo: Routeless Routing under random-waypoint motion. The
// protocol stores no routes, so there is nothing to break when topology
// drifts — gradients refresh passively from every packet. This program
// sweeps pedestrian-to-vehicle speeds over the same field and prints
// how delivery and hop counts respond.
//
//	go run ./examples/mobility
package main

import (
	"fmt"

	"routeless"
)

// movers is how many nodes walk; the five flows run between the ten
// nodes after them, which stay put so flows stay defined. Placement is
// uniform, so those ten ids are ten random points of the field.
const movers = 140

func run(maxSpeed float64) routeless.RunMetrics {
	sc := routeless.Scenario{
		Seed: 13, N: 150, Width: 1100, Height: 1100, Range: 250,
		Placement: "uniform", Connected: true,
		Protocol: "routeless", Lambda: 50e-3,
		Interval: 1, DataSize: 64,
		Duration: 40, // then a 5 s drain
	}
	for i := range 5 {
		sc.Flows = append(sc.Flows, routeless.Flow{Src: movers + i, Dst: movers + 5 + i})
	}
	if maxSpeed > 0 {
		sc.Mobility = &routeless.Mobility{Movers: movers, MinSpeed: maxSpeed / 4, MaxSpeed: maxSpeed}
	}
	m, err := routeless.Must(routeless.Build(sc)).Finish()
	if err != nil {
		panic(err)
	}
	return m
}

func main() {
	t := routeless.NewTable(
		"Routeless Routing under random-waypoint mobility (150 nodes, 5 CBR flows, 40 s)",
		"max_speed_mps", "delivery", "avg_hops")
	for _, speed := range []float64{0, 2, 5, 10, 20} {
		m := run(speed)
		t.AddRow(speed, m.Delivery, m.Hops)
	}
	fmt.Println(t)
	fmt.Println("No route maintenance, no handoff signaling: the hop-count gradient is")
	fmt.Println("re-learned from every overheard packet, so motion only costs delivery")
	fmt.Println("when nodes outrun the traffic that refreshes it.")
}
