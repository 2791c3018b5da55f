package routing

import (
	"testing"

	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/sim"
)

func buildAODV(t *testing.T, cfg AODVConfig, seed int64, positions []geo.Point) (*node.Network, []*AODV) {
	t.Helper()
	nw := node.Must(node.New(node.Config{Positions: positions, Seed: seed}))
	as := make([]*AODV, len(positions))
	i := 0
	nw.Install(func(n *node.Node) node.Protocol {
		a := NewAODV(cfg)
		as[i] = a
		i++
		return a
	})
	return nw, as
}

func TestAODVDirectNeighbor(t *testing.T) {
	nw, as := buildAODV(t, AODVConfig{}, 1, line(2, 150))
	var got []*packet.Packet
	nw.Nodes[1].OnAppReceive = func(p *packet.Packet) { got = append(got, p.Clone()) }
	as[0].Send(1, 0)
	nw.Run(5)
	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1", len(got))
	}
	if got[0].HopCount != 1 {
		t.Fatalf("hops %d, want 1", got[0].HopCount)
	}
	if h, ok := as[0].RouteTo(1); !ok || h != 1 {
		t.Fatalf("route to 1 = (%d,%v), want (1,true)", h, ok)
	}
}

func TestAODVMultiHop(t *testing.T) {
	nw, as := buildAODV(t, AODVConfig{}, 2, line(5, 200))
	var got []*packet.Packet
	nw.Nodes[4].OnAppReceive = func(p *packet.Packet) { got = append(got, p.Clone()) }
	as[0].Send(4, 0)
	nw.Run(10)
	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1", len(got))
	}
	if got[0].HopCount != 4 {
		t.Fatalf("hops %d, want 4", got[0].HopCount)
	}
	// Intermediate nodes hold forward routes in both directions after
	// RREQ (reverse) + RREP (forward).
	if h, ok := as[2].RouteTo(0); !ok || h != 2 {
		t.Fatalf("mid node route to source = (%d,%v), want (2,true)", h, ok)
	}
	if h, ok := as[2].RouteTo(4); !ok || h != 2 {
		t.Fatalf("mid node route to dest = (%d,%v), want (2,true)", h, ok)
	}
}

func TestAODVRouteReuse(t *testing.T) {
	nw, as := buildAODV(t, AODVConfig{}, 3, line(3, 200))
	count := 0
	nw.Nodes[2].OnAppReceive = func(*packet.Packet) { count++ }
	as[0].Send(2, 0)
	nw.Run(5)
	rreqs := as[0].Count(AODVRREQSent)
	for i := 0; i < 5; i++ {
		as[0].Send(2, 0)
	}
	nw.Run(15)
	if count != 6 {
		t.Fatalf("delivered %d, want 6", count)
	}
	if as[0].Count(AODVRREQSent) != rreqs {
		t.Fatal("established route not reused")
	}
}

func TestAODVLinkBreakTriggersRediscovery(t *testing.T) {
	// Chain 0-1-2-3 with an alternate path 0-4-5-3 (longer). Kill node
	// 1 after the route forms; AODV must detect the break via ARQ and
	// re-discover through the alternate path.
	positions := []geo.Point{
		{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}, {X: 600, Y: 0},
		{X: 150, Y: 150}, {X: 380, Y: 150},
	}
	nw, as := buildAODV(t, AODVConfig{}, 4, positions)
	count := 0
	nw.Nodes[3].OnAppReceive = func(*packet.Packet) { count++ }
	as[0].Send(3, 0)
	nw.Run(5)
	if count != 1 {
		t.Fatalf("first packet not delivered (%d)", count)
	}
	nw.Nodes[1].Fail()
	nw.Kernel.RunUntil(6)
	as[0].Send(3, 0)
	nw.Run(30)
	if count != 2 {
		t.Fatalf("second packet lost after link break (delivered=%d)", count)
	}
	if as[0].Count(AODVLinkBreaks) == 0 {
		t.Fatal("link break never detected")
	}
	if as[0].Count(AODVRediscoveries) == 0 && as[0].Count(AODVRREQSent) < 2 {
		t.Fatal("no re-discovery after link break")
	}
}

func TestAODVHelloMaintainsNeighbors(t *testing.T) {
	nw, as := buildAODV(t, AODVConfig{}, 5, line(2, 150))
	nw.Run(5)
	if as[0].Count(AODVHellos) == 0 {
		t.Fatal("no hello beacons sent")
	}
	if _, ok := as[0].neighbors[1]; !ok {
		t.Fatal("neighbor not learned from hellos")
	}
	// Silence the neighbor: entry must expire.
	nw.Nodes[1].Fail()
	nw.Run(15)
	if _, ok := as[0].neighbors[1]; ok {
		t.Fatal("dead neighbor never expired")
	}
	if as[0].Count(AODVLinkBreaks) == 0 {
		t.Fatal("hello loss not counted as link break")
	}
}

func TestAODVRERRPropagates(t *testing.T) {
	// 0-1-2-3 route; when 2 dies, 1 invalidates and sends RERR; 0
	// must drop its route to 3.
	nw, as := buildAODV(t, AODVConfig{}, 6, line(4, 200))
	count := 0
	nw.Nodes[3].OnAppReceive = func(*packet.Packet) { count++ }
	as[0].Send(3, 0)
	nw.Run(5)
	if count != 1 {
		t.Fatalf("setup failed: delivered %d", count)
	}
	nw.Nodes[2].Fail()
	nw.Run(20) // hello timeout at node 1 → RERR broadcast
	if _, ok := as[0].RouteTo(3); ok {
		t.Fatal("source still holds a route through the dead node")
	}
	var rerrs uint64
	for _, a := range as {
		rerrs += a.Count(AODVRERRSent)
	}
	if rerrs == 0 {
		t.Fatal("no RERR ever sent")
	}
}

func TestAODVNoRouteGivesUp(t *testing.T) {
	positions := []geo.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 2500, Y: 0}}
	nw, as := buildAODV(t, AODVConfig{}, 7, positions)
	as[0].Send(2, 0)
	nw.Run(10)
	if as[0].Count(AODVDroppedNoRoute) != 1 {
		t.Fatalf("DroppedNoRoute = %d, want 1", as[0].Count(AODVDroppedNoRoute))
	}
}

func TestAODVSalvageOutlivesTheDeliveredPacket(t *testing.T) {
	// A relay with no route salvages the data frame behind a discovery
	// for its target. The frame is lent for the OnDeliver call only and
	// zeroed afterwards, as phy does; the discovery must still retry
	// toward the packet's target and then give the salvage up.
	positions := []geo.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 2500, Y: 0}}
	nw, as := buildAODV(t, AODVConfig{NoHello: true}, 7, positions)
	lent := packet.Packet{Kind: packet.KindData, From: 0, To: 1, Origin: 0, Target: 2, Seq: 1, HopCount: 1, TTL: 8, Size: 64}
	as[1].OnDeliver(&lent, -50)
	lent = packet.Packet{}
	nw.Run(10)
	if got := as[1].Count(AODVRediscoveries); got != maxDiscoveryRetries {
		t.Fatalf("Rediscoveries = %d, want %d", got, maxDiscoveryRetries)
	}
	if got := as[1].Count(AODVDroppedNoRoute); got != 1 {
		t.Fatalf("DroppedNoRoute = %d, want 1 (the salvaged packet)", got)
	}
}

func TestAODVBidirectional(t *testing.T) {
	nw, as := buildAODV(t, AODVConfig{}, 8, line(4, 200))
	got := map[packet.NodeID]int{}
	nw.Nodes[0].OnAppReceive = func(*packet.Packet) { got[0]++ }
	nw.Nodes[3].OnAppReceive = func(*packet.Packet) { got[3]++ }
	as[0].Send(3, 0)
	as[3].Send(0, 0)
	nw.Run(10)
	if got[0] != 1 || got[3] != 1 {
		t.Fatalf("deliveries %v", got)
	}
}

func TestAODVSendToSelf(t *testing.T) {
	nw, as := buildAODV(t, AODVConfig{}, 9, line(2, 150))
	count := 0
	nw.Nodes[0].OnAppReceive = func(*packet.Packet) { count++ }
	as[0].Send(0, 0)
	nw.Run(1)
	if count != 1 {
		t.Fatalf("self delivery = %d", count)
	}
}

func TestAODVRouteExpiry(t *testing.T) {
	nw, as := buildAODV(t, AODVConfig{}, 10, line(3, 200))
	count := 0
	nw.Nodes[2].OnAppReceive = func(*packet.Packet) { count++ }
	as[0].Send(2, 0)
	nw.Run(routeLifetime + 3)
	if _, ok := as[0].RouteTo(2); ok {
		t.Fatalf("route should have expired after %vs idle", routeLifetime)
	}
	// Traffic still works — it just re-discovers.
	as[0].Send(2, 0)
	nw.Run(routeLifetime + 13)
	if count != 2 {
		t.Fatalf("delivered %d, want 2", count)
	}
	if as[0].Count(AODVRREQSent) < 2 {
		t.Fatal("expiry did not force a new discovery")
	}
}

func TestAODVHelloOverheadGrowsWithTime(t *testing.T) {
	// The cost AODV pays even when idle (and Routeless does not): MAC
	// frames accumulate linearly from beacons.
	nw, _ := buildAODV(t, AODVConfig{}, 11, line(4, 200))
	nw.Run(10)
	atTen := nw.MACPackets()
	nw.Kernel.SetHorizon(sim.Infinity)
	nw.Run(20)
	atTwenty := nw.MACPackets()
	if atTen == 0 {
		t.Fatal("no hello traffic at all")
	}
	if atTwenty < atTen+uint64(float64(atTen)*0.7) {
		t.Fatalf("hello overhead not roughly linear: %d → %d", atTen, atTwenty)
	}
}

func TestRRIdleHasNoControlTraffic(t *testing.T) {
	// Contrast with the previous test: an idle Routeless network is
	// silent (§4.2 "without incurring any overhead of control packets").
	nw, _ := buildRR(t, RoutelessConfig{}, 12, line(4, 200))
	nw.Run(30)
	if nw.MACPackets() != 0 {
		t.Fatalf("idle Routeless network transmitted %d frames", nw.MACPackets())
	}
}

func TestAODVExpandingRingFindsNearTargetCheaply(t *testing.T) {
	// With a close destination, ring TTL 1 suffices: the RREQ must not
	// flood the whole field.
	nw1 := node.Must(node.New(node.Config{N: 80, Rect: geo.NewRect(900, 900), Seed: 14, EnsureConnected: true}))
	plain := make([]*AODV, 0, 80)
	nw1.Install(func(n *node.Node) node.Protocol {
		a := NewAODV(AODVConfig{NoHello: true})
		plain = append(plain, a)
		return a
	})
	dst1 := nearestNeighborOf(nw1, 0)
	done := false
	nw1.Nodes[dst1].OnAppReceive = func(*packet.Packet) { done = true }
	plain[0].Send(packet.NodeID(dst1), 64)
	nw1.Run(10)
	plainPkts := nw1.MACPackets()
	if !done {
		t.Fatal("plain AODV failed to deliver")
	}

	nw2 := node.Must(node.New(node.Config{N: 80, Rect: geo.NewRect(900, 900), Seed: 14, EnsureConnected: true}))
	ring := make([]*AODV, 0, 80)
	nw2.Install(func(n *node.Node) node.Protocol {
		a := NewAODV(AODVConfig{NoHello: true, ExpandingRing: true})
		ring = append(ring, a)
		return a
	})
	done2 := false
	nw2.Nodes[dst1].OnAppReceive = func(*packet.Packet) { done2 = true }
	ring[0].Send(packet.NodeID(dst1), 64)
	nw2.Run(10)
	if !done2 {
		t.Fatal("expanding-ring AODV failed to deliver")
	}
	if nw2.MACPackets() >= plainPkts {
		t.Fatalf("expanding ring used %d frames, plain %d — no savings for a 1-hop target",
			nw2.MACPackets(), plainPkts)
	}
}

func TestAODVExpandingRingEventuallyReachesFarTarget(t *testing.T) {
	// A distant destination needs ring escalation 1→3→7→full; the
	// discovery must still succeed within the retry budget.
	nw, as := buildAODV(t, AODVConfig{NoHello: true, ExpandingRing: true}, 15, line(6, 200))
	count := 0
	nw.Nodes[5].OnAppReceive = func(*packet.Packet) { count++ }
	as[0].Send(5, 64)
	nw.Run(20)
	if count != 1 {
		t.Fatalf("delivered %d, want 1 after ring escalation", count)
	}
	if as[0].Count(AODVRREQSent) < 2 {
		t.Fatal("far target should need more than one ring")
	}
}

// nearestNeighborOf returns the index of the node closest to node i.
func nearestNeighborOf(nw *node.Network, i int) int {
	best, bestD := -1, 1e18
	for j, n := range nw.Nodes {
		if j == i {
			continue
		}
		if d := n.Pos.Dist(nw.Nodes[i].Pos); d < bestD {
			best, bestD = j, d
		}
	}
	return best
}
