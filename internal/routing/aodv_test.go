package routing

import (
	"testing"

	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/packet"
)

func buildAODV(t *testing.T, seed int64, positions []geo.Point) (*node.Network, []*AODV) {
	t.Helper()
	nw := node.Must(node.New(node.Config{Positions: positions, Seed: seed}))
	as := make([]*AODV, len(positions))
	i := 0
	nw.Install(func(n *node.Node) node.Protocol {
		a := NewAODV()
		as[i] = a
		i++
		return a
	})
	return nw, as
}

func TestAODVDirectNeighbor(t *testing.T) {
	nw, as := buildAODV(t, 1, line(2, 150))
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
	nw, as := buildAODV(t, 2, line(5, 200))
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
	nw, as := buildAODV(t, 3, line(3, 200))
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
	nw, as := buildAODV(t, 4, positions)
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

func TestAODVRERRPropagates(t *testing.T) {
	// 0-1-2-3 route; when 2 dies, the next data packet fails its ARQ at
	// 1, which invalidates and sends RERR; 0 must drop its route to 3.
	nw, as := buildAODV(t, 6, line(4, 200))
	count := 0
	nw.Nodes[3].OnAppReceive = func(*packet.Packet) { count++ }
	as[0].Send(3, 0)
	nw.Run(5)
	if count != 1 {
		t.Fatalf("setup failed: delivered %d", count)
	}
	nw.Nodes[2].Fail()
	as[0].Send(3, 0)
	nw.Run(20) // ARQ failure at node 1 → RERR broadcast
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
	nw, as := buildAODV(t, 7, positions)
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
	nw, as := buildAODV(t, 7, positions)
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
	nw, as := buildAODV(t, 8, line(4, 200))
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
	nw, as := buildAODV(t, 9, line(2, 150))
	count := 0
	nw.Nodes[0].OnAppReceive = func(*packet.Packet) { count++ }
	as[0].Send(0, 0)
	nw.Run(1)
	if count != 1 {
		t.Fatalf("self delivery = %d", count)
	}
}

func TestAODVRouteExpiry(t *testing.T) {
	nw, as := buildAODV(t, 10, line(3, 200))
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

func TestRRIdleHasNoControlTraffic(t *testing.T) {
	// An idle Routeless network is silent (§4.2 "without incurring any
	// overhead of control packets"); so is the on-demand AODV baseline,
	// which sends no hello beacons.
	rr, _ := buildRR(t, RoutelessConfig{}, 12, line(4, 200))
	aodv, _ := buildAODV(t, 12, line(4, 200))
	for _, c := range []struct {
		name string
		nw   *node.Network
	}{{"Routeless", rr}, {"AODV", aodv}} {
		c.nw.Run(30)
		if c.nw.MACPackets() != 0 {
			t.Errorf("idle %s network transmitted %d frames", c.name, c.nw.MACPackets())
		}
	}
}
