package routing

import (
	"testing"

	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/sim"
)

func buildGrad(t *testing.T, seed int64, positions []geo.Point) (*node.Network, []*Gradient) {
	t.Helper()
	nw := node.Must(node.New(node.Config{Positions: positions, Seed: seed}))
	gs := make([]*Gradient, len(positions))
	i := 0
	nw.Install(func(n *node.Node) node.Protocol {
		g := NewGradient()
		gs[i] = g
		i++
		return g
	})
	return nw, gs
}

func TestGradientDelivers(t *testing.T) {
	nw, gs := buildGrad(t, 1, line(4, 200))
	count := 0
	nw.Nodes[3].OnAppReceive = func(*packet.Packet) { count++ }
	gs[0].Send(3, 0)
	nw.Run(10)
	if count != 1 {
		t.Fatalf("delivered %d, want 1", count)
	}
}

func TestGradientOnlyCloserNodesForward(t *testing.T) {
	// A node behind the source must never forward (its hop count to the
	// destination exceeds the source's).
	positions := []geo.Point{
		{X: 0, Y: 0},   // behind (node 0)
		{X: 200, Y: 0}, // source (node 1)
		{X: 400, Y: 0}, // relay (node 2)
		{X: 600, Y: 0}, // destination (node 3)
	}
	nw, gs := buildGrad(t, 2, positions)
	count := 0
	nw.Nodes[3].OnAppReceive = func(*packet.Packet) { count++ }
	gs[1].Send(3, 0)
	nw.Run(10)
	if count != 1 {
		t.Fatalf("delivered %d, want 1", count)
	}
	if gs[0].Count(GradForwards) != 0 {
		t.Fatal("node behind the source forwarded the packet")
	}
	if gs[0].Count(GradNotCloserDrops) == 0 {
		t.Fatal("gradient constraint never evaluated at the rear node")
	}
	if gs[2].Count(GradForwards) == 0 {
		t.Fatal("forward relay never forwarded")
	}
}

func TestGradientRedundantForwarders(t *testing.T) {
	// Several equally close candidates: gradient routing lets ALL of
	// them retransmit (the §4.4 congestion criticism), unlike Routeless
	// which elects one.
	positions := []geo.Point{
		{X: 0, Y: 0},
		{X: 200, Y: 0}, {X: 200, Y: 40}, {X: 200, Y: -40},
		{X: 400, Y: 0},
	}
	nw, gs := buildGrad(t, 3, positions)
	count := 0
	nw.Nodes[4].OnAppReceive = func(*packet.Packet) { count++ }
	gs[0].Send(4, 0)
	nw.Run(10)
	if count != 1 {
		t.Fatalf("delivered %d, want 1", count)
	}
	var midForwards uint64
	for _, g := range gs[1:4] {
		midForwards += g.Count(GradForwards)
	}
	if midForwards < 2 {
		t.Fatalf("middle forwards = %d; gradient routing should be redundant", midForwards)
	}
}

func TestGradientVsRoutelessTransmissions(t *testing.T) {
	// The §4.4 claim quantified: on the same topology and traffic,
	// Gradient Routing puts more data-plane frames on the air than
	// Routeless Routing.
	// Dense rings of candidates between source and destination: the
	// gradient band forwards through every candidate, Routeless elects
	// one per hop (plus ACKs).
	positions := []geo.Point{
		{X: 0, Y: 0},
		{X: 190, Y: 30}, {X: 190, Y: -30}, {X: 210, Y: 60}, {X: 210, Y: -60},
		{X: 390, Y: 30}, {X: 390, Y: -30}, {X: 410, Y: 60}, {X: 410, Y: -60},
		{X: 600, Y: 0},
	}
	gradFrames := func() uint64 {
		nw, gs := buildGrad(t, 4, positions)
		for i := 0; i < 5; i++ {
			at := 1 + float64(i)
			nw.Kernel.At(sim.Time(at), func() { gs[0].Send(9, 0) })
		}
		nw.Run(20)
		return nw.MACPackets()
	}()
	rrFrames := func() uint64 {
		nw, rrs := buildRR(t, RoutelessConfig{}, 4, positions)
		for i := 0; i < 5; i++ {
			at := 1 + float64(i)
			nw.Kernel.At(sim.Time(at), func() { rrs[0].Send(9, 0) })
		}
		nw.Run(20)
		return nw.MACPackets()
	}()
	if gradFrames <= rrFrames {
		t.Fatalf("gradient frames (%d) should exceed routeless frames (%d)", gradFrames, rrFrames)
	}
}

func TestGradientNoRouteGivesUp(t *testing.T) {
	positions := []geo.Point{{X: 0, Y: 0}, {X: 2500, Y: 0}}
	nw, gs := buildGrad(t, 5, positions)
	gs[0].Send(1, 0)
	nw.Run(10)
	if gs[0].Count(GradDroppedNoRoute) != 1 {
		t.Fatalf("DroppedNoRoute = %d, want 1", gs[0].Count(GradDroppedNoRoute))
	}
}
