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
	"routeless/internal/node"
	"routeless/internal/rng"
)

func run(maxSpeed float64) (delivery float64, hops float64) {
	nw := routeless.Must(routeless.NewNetwork(routeless.NetworkConfig{
		N: 150, Rect: routeless.NewRect(1100, 1100), Seed: 13, EnsureConnected: true,
	}))
	nw.Install(func(n *routeless.Node) routeless.Protocol {
		return routeless.NewRouteless(routeless.RoutelessConfig{})
	})
	var meter routeless.Meter
	for _, n := range nw.Nodes {
		n := n
		n.OnAppReceive = func(p *routeless.Packet) {
			meter.PacketReceived(float64(nw.Kernel.Now()-p.CreatedAt), p.HopCount)
		}
	}
	pairs := routeless.RandomPairs(rng.New(13, rng.StreamTraffic), 150, 5)
	endpoint := map[routeless.NodeID]bool{}
	var flows []*routeless.CBR
	for _, p := range pairs {
		endpoint[p.Src], endpoint[p.Dst] = true, true
		c := routeless.NewCBR(nw.Nodes[p.Src], p.Dst, 1.0, 64)
		c.OnSend = meter.PacketSent
		c.Start()
		flows = append(flows, c)
	}
	if maxSpeed > 0 {
		for i, n := range nw.Nodes {
			if endpoint[n.ID] {
				continue // endpoints stay put so flows stay defined
			}
			w := node.NewWaypoint(nw, n, rng.ForNode(13, rng.StreamTopology, i))
			w.MinSpeed, w.MaxSpeed = maxSpeed/4, maxSpeed
			w.Start()
		}
	}
	nw.Run(40)
	for _, c := range flows {
		c.Stop()
	}
	nw.Run(45)
	return meter.DeliveryRatio(), meter.Hops.Mean()
}

func main() {
	t := routeless.NewTable(
		"Routeless Routing under random-waypoint mobility (150 nodes, 5 CBR flows, 40 s)",
		"max_speed_mps", "delivery", "avg_hops")
	for _, speed := range []float64{0, 2, 5, 10, 20} {
		d, h := run(speed)
		t.AddRow(speed, d, h)
	}
	fmt.Println(t)
	fmt.Println("No route maintenance, no handoff signaling: the hop-count gradient is")
	fmt.Println("re-learned from every overheard packet, so motion only costs delivery")
	fmt.Println("when nodes outrun the traffic that refreshes it.")
}
