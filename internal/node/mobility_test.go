package node

import (
	"testing"

	"routeless/internal/geo"
	"routeless/internal/packet"
	"routeless/internal/rng"
)

func TestWaypointMovesWithinTerrain(t *testing.T) {
	nw := Must(New(Config{N: 5, Rect: geo.NewRect(500, 500), Seed: 1}))
	nw.Install(func(n *Node) Protocol { return &echoProto{} })
	w := NewWaypoint(nw, nw.Nodes[0], rng.ForNode(1, rng.StreamTopology, 0))
	start := nw.Nodes[0].Pos
	w.Start()
	nw.Run(600) // long enough to complete several legs at 1–5 m/s
	if nw.Nodes[0].Pos == start {
		t.Fatal("node never moved")
	}
	if !nw.Rect.Contains(nw.Nodes[0].Pos) {
		t.Fatalf("node left the terrain: %v", nw.Nodes[0].Pos)
	}
	if w.Legs() == 0 {
		t.Fatal("no waypoint ever reached")
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	nw := Must(New(Config{N: 2, Rect: geo.NewRect(1000, 1000), Seed: 2}))
	nw.Install(func(n *Node) Protocol { return &echoProto{} })
	w := NewWaypoint(nw, nw.Nodes[0], rng.ForNode(2, rng.StreamTopology, 0))
	w.MinSpeed, w.MaxSpeed = 2, 2 // exactly 2 m/s
	w.MinPause, w.MaxPause = 0, 0
	w.Start()
	prev := nw.Nodes[0].Pos
	maxStride := 0.0
	for i := 0; i < 200; i++ {
		nw.Run(nw.Kernel.Now() + 0.25)
		p := nw.Nodes[0].Pos
		if d := prev.Dist(p); d > maxStride {
			maxStride = d
		}
		prev = p
	}
	// 2 m/s × 0.25 s tick = 0.5 m per tick, small epsilon.
	if maxStride > 0.51 {
		t.Fatalf("stride %v exceeds speed bound", maxStride)
	}
}

func TestWaypointStopFreezes(t *testing.T) {
	nw := Must(New(Config{N: 2, Rect: geo.NewRect(500, 500), Seed: 3}))
	nw.Install(func(n *Node) Protocol { return &echoProto{} })
	w := NewWaypoint(nw, nw.Nodes[0], rng.ForNode(3, rng.StreamTopology, 0))
	w.Start()
	nw.Run(10)
	w.Stop()
	frozen := nw.Nodes[0].Pos
	nw.Run(30)
	if nw.Nodes[0].Pos != frozen {
		t.Fatal("node moved after Stop")
	}
}

func TestMoveNodeSyncsChannel(t *testing.T) {
	nw := Must(New(Config{Positions: []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Seed: 4}))
	nw.Install(func(n *Node) Protocol { return &echoProto{} })
	nw.MoveNode(1, geo.Point{X: 400, Y: 300})
	if nw.Nodes[1].Pos != (geo.Point{X: 400, Y: 300}) {
		t.Fatal("node position not updated")
	}
	if nw.Channel.Position(1) != (geo.Point{X: 400, Y: 300}) {
		t.Fatal("channel position not updated")
	}
}

func TestMobilityAffectsConnectivity(t *testing.T) {
	// Two nodes in range exchange traffic; move one out of range and
	// traffic stops; move it back and traffic resumes.
	nw := Must(New(Config{Positions: []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Seed: 5}))
	nw.Install(func(n *Node) Protocol { return &echoProto{} })
	count := 0
	nw.Nodes[1].OnAppReceive = func(*packet.Packet) { count++ }
	send := func() {
		nw.Nodes[0].Net.Send(1, 64)
		nw.Run(nw.Kernel.Now() + 1)
	}
	send()
	if count != 1 {
		t.Fatalf("in range: delivered %d", count)
	}
	nw.MoveNode(1, geo.Point{X: 2000, Y: 0})
	send()
	if count != 1 {
		t.Fatal("out-of-range node still received")
	}
	nw.MoveNode(1, geo.Point{X: 150, Y: 0})
	send()
	if count != 2 {
		t.Fatal("moved-back node did not receive")
	}
}
