// Routeless Routing demo: end-to-end data over a 200-node field, with a
// mid-run failure of the busiest relay. Because no route is stored
// anywhere, the next packets elect a different next hop on the spot —
// no route error, no re-discovery, no interruption (§4.2).
//
//	go run ./examples/routeless
package main

import (
	"cmp"
	"fmt"
	"slices"

	"routeless"
	"routeless/internal/routing"
)

func main() {
	nw := routeless.Must(routeless.NewNetwork(routeless.NetworkConfig{
		N: 200, Rect: routeless.NewRect(1200, 1200), Seed: 11, EnsureConnected: true,
	}))

	relayLoad := map[routeless.NodeID]int{}
	protos := make([]*routeless.Routeless, 0, len(nw.Nodes))
	nw.Install(func(n *routeless.Node) routeless.Protocol {
		r := routeless.NewRouteless(routeless.RoutelessConfig{})
		id := n.ID
		r.OnRelay = func(p *routeless.Packet) {
			if p.Kind == routeless.KindData && p.Origin != id {
				relayLoad[id]++
			}
		}
		protos = append(protos, r)
		return r
	})

	// Pick endpoints on opposite sides of the field.
	src, dst := nearest(nw, 100, 600), nearest(nw, 1100, 600)
	fmt.Printf("source n%d at %v — destination n%d at %v\n\n",
		src, nw.Nodes[src].Pos, dst, nw.Nodes[dst].Pos)

	delivered := 0
	nw.Nodes[dst].OnAppReceive = func(p *routeless.Packet) {
		delivered++
		fmt.Printf("t=%5.2fs  delivered #%d after %d hops (%.1f ms)\n",
			float64(nw.Kernel.Now()), delivered, p.HopCount,
			(nw.Kernel.Now() - p.CreatedAt).Millis())
	}

	// One packet per second for 20 seconds.
	cbr := routeless.NewCBR(nw.Nodes[src], routeless.NodeID(dst), 1.0, 256)
	cbr.StartAt(0.5)

	// After 8 seconds, kill whichever relay carried the most packets.
	nw.Kernel.At(8, func() {
		victim := busiest(relayLoad)
		fmt.Printf("t= 8.00s  *** killing busiest relay n%d (%d relays so far) ***\n",
			victim, relayLoad[victim])
		nw.Nodes[victim].Fail()
	})

	nw.Run(21)
	cbr.Stop()
	nw.Run(25)

	fmt.Printf("\n%d/%d packets delivered; busiest surviving relays:\n", delivered, cbr.Sent())
	for _, id := range topRelays(relayLoad, 5) {
		state := "up"
		if !nw.Nodes[id].Up() {
			state = "FAILED"
		}
		fmt.Printf("  n%-4d %3d relays (%s)\n", id, relayLoad[id], state)
	}
	fmt.Printf("\nsource stats: %d discoveries (no re-discovery after the failure), %d data sent\n",
		protos[src].Count(routing.RRDiscoveriesSent), protos[src].Count(routing.RRDataSent))
}

func nearest(nw *routeless.Network, x, y float64) int {
	best, bestD := 0, 1e18
	for i, n := range nw.Nodes {
		dx, dy := n.Pos.X-x, n.Pos.Y-y
		if d := dx*dx + dy*dy; d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func busiest(load map[routeless.NodeID]int) routeless.NodeID {
	var best routeless.NodeID
	bestN := -1
	ids := make([]int, 0, len(load))
	for id := range load {
		ids = append(ids, int(id))
	}
	slices.Sort(ids)
	for _, id := range ids {
		if load[routeless.NodeID(id)] > bestN {
			best, bestN = routeless.NodeID(id), load[routeless.NodeID(id)]
		}
	}
	return best
}

func topRelays(load map[routeless.NodeID]int, k int) []routeless.NodeID {
	ids := make([]routeless.NodeID, 0, len(load))
	for id := range load {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b routeless.NodeID) int {
		if c := cmp.Compare(load[b], load[a]); c != 0 {
			return c // heavier relays first
		}
		return cmp.Compare(a, b)
	})
	if len(ids) > k {
		ids = ids[:k]
	}
	return ids
}
