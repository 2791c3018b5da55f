package routing

import (
	"testing"

	"routeless/internal/flood"
	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/rng"
	"routeless/internal/sim"
)

// TestRRUnderMobility: slow random-waypoint motion must not break
// Routeless Routing — the gradient refreshes passively from every data
// packet, so routes follow the nodes (the "dynamic topological changes"
// motivation of §4).
func TestRRUnderMobility(t *testing.T) {
	nw := node.Must(node.New(node.Config{N: 120, Rect: geo.NewRect(1000, 1000), Seed: 21, EnsureConnected: true}))
	rrs := make([]*Routeless, 0, 120)
	nw.Install(func(n *node.Node) node.Protocol {
		r := NewRouteless(RoutelessConfig{})
		rrs = append(rrs, r)
		return r
	})
	src, dst := 0, 100
	delivered := 0
	sent := 0
	nw.Nodes[dst].OnAppReceive = func(*packet.Packet) { delivered++ }
	// Intermediate nodes wander slowly (pedestrian speeds); endpoints
	// stay put so the flow itself is well-defined.
	for i, n := range nw.Nodes {
		if i == src || i == dst {
			continue
		}
		w := node.NewWaypoint(nw, n, rng.ForNode(21, rng.StreamTopology, i))
		w.MinSpeed, w.MaxSpeed = 0.5, 2
		w.Start()
	}
	for at := sim.Time(1); at <= 30; at++ {
		at := at
		nw.Kernel.At(at, func() {
			sent++
			rrs[src].Send(packet.NodeID(dst), 64)
		})
	}
	nw.Run(40)
	if float64(delivered)/float64(sent) < 0.8 {
		t.Fatalf("delivery %d/%d under slow mobility", delivered, sent)
	}
}

// TestRRSurvivesUnidirectionalLink: §4 — "The existence of
// unidirectional links may negatively affect the efficiency, but not
// the correctness of the protocol." A node whose outgoing links are
// muted can hear but not be heard; the protocol must route around it.
func TestRRSurvivesUnidirectionalLink(t *testing.T) {
	// Chain 0-1-2 with a parallel relay 3. Node 1's outgoing links are
	// muted so its transmissions reach nobody, while it still hears
	// everyone: every link *through node 1* is unidirectional. Traffic
	// must flow via node 3.
	positions := []geo.Point{
		{X: 0, Y: 0}, {X: 200, Y: 40}, {X: 400, Y: 0}, {X: 200, Y: -60},
	}
	nw := node.Must(node.New(node.Config{Positions: positions, Seed: 22}))
	rrs := make([]*Routeless, 0, 4)
	nw.Install(func(n *node.Node) node.Protocol {
		r := NewRouteless(RoutelessConfig{})
		rrs = append(rrs, r)
		return r
	})
	for _, to := range []int{0, 2, 3} {
		nw.Channel.SetLinkOffset(1, to, -60) // whisper: heard by nobody at 200 m
	}
	count := 0
	nw.Nodes[2].OnAppReceive = func(*packet.Packet) { count++ }
	rrs[0].Send(2, 64)
	nw.Run(15)
	if count != 1 {
		t.Fatalf("delivered %d, want 1 via the healthy relay", count)
	}
	if rrs[3].Count(RRRelays) == 0 {
		t.Fatal("healthy relay never carried the packet")
	}
}

// TestSSAFUnderRayleighFading: §3 — under Rayleigh "the signal strength
// may vary dramatically", but "the weakening of the signal as the
// distance increases still holds at large scales", so SSAF keeps
// working (just with noisier relay choices).
func TestSSAFUnderRayleighFading(t *testing.T) {
	nw := node.Must(node.New(node.Config{
		N: 80, Rect: geo.NewRect(900, 900), Seed: 23, EnsureConnected: true,
		Fading: true,
	}))
	delivered := 0
	nw.Nodes[60].OnAppReceive = func(*packet.Packet) { delivered++ }
	flood.Install(nw, flood.SSAFConfig(10e-3, -55.1, -33.2))
	for i := 0; i < 10; i++ {
		nw.Kernel.At(sim.Time(1+i), func() { nw.Nodes[0].Net.Send(60, 64) })
	}
	nw.Run(20)
	if delivered < 7 {
		t.Fatalf("delivered %d/10 floods under Rayleigh fading", delivered)
	}
}
