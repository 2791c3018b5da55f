package traffic

import (
	"math/rand"
	"testing"

	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/packet"
)

func TestRandomPairsProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pairs := RandomPairs(r, 100, 50)
	if len(pairs) != 50 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	seen := map[Pair]bool{}
	for _, p := range pairs {
		if p.Src == p.Dst {
			t.Fatalf("self pair %v", p)
		}
		if p.Src < 0 || int(p.Src) >= 100 || p.Dst < 0 || int(p.Dst) >= 100 {
			t.Fatalf("pair out of range %v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestRandomPairsDeterministic(t *testing.T) {
	a := RandomPairs(rand.New(rand.NewSource(2)), 50, 20)
	b := RandomPairs(rand.New(rand.NewSource(2)), 50, 20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pair selection not deterministic")
		}
	}
}

func TestRandomPairsExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pairs := RandomPairs(r, 3, 6) // all ordered pairs of 3 nodes
	if len(pairs) != 6 {
		t.Fatalf("got %d pairs", len(pairs))
	}
}

func TestRandomPairsPanics(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, f := range []func(){
		func() { RandomPairs(r, 1, 1) },
		func() { RandomPairs(r, 3, 7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// sink protocol records sends without touching the radio.
type sinkProto struct {
	n     *node.Node
	sends []packet.NodeID
}

func (s *sinkProto) Start(n *node.Node)                  { s.n = n }
func (s *sinkProto) OnDeliver(*packet.Packet, float64)   {}
func (s *sinkProto) OnSent(*packet.Packet)               {}
func (s *sinkProto) OnUnicastFailed(*packet.Packet)      {}
func (s *sinkProto) Send(target packet.NodeID, size int) { s.sends = append(s.sends, target) }

func TestCBRGeneratesAtInterval(t *testing.T) {
	nw := node.Must(node.New(node.Config{Positions: []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Seed: 5}))
	sinks := make([]*sinkProto, 0, 2)
	nw.Install(func(n *node.Node) node.Protocol {
		s := &sinkProto{}
		sinks = append(sinks, s)
		return s
	})
	c := NewCBR(nw.Nodes[0], 1, 0.5, 100)
	c.StartAt(0.25)
	nw.Run(10)
	// Generations at 0.25, 0.75, 1.25, ... 9.75 → 20 packets.
	if c.Sent() != 20 {
		t.Fatalf("sent %d, want 20", c.Sent())
	}
	if len(sinks[0].sends) != 20 {
		t.Fatalf("protocol saw %d sends", len(sinks[0].sends))
	}
	for _, target := range sinks[0].sends {
		if target != 1 {
			t.Fatalf("send to %v, want 1", target)
		}
	}
	c.Stop()
	nw.Kernel.SetHorizon(1e18)
	nw.Run(20)
	if c.Sent() != 20 {
		t.Fatal("CBR kept generating after Stop")
	}
}

func TestCBRSilentWhileNodeDown(t *testing.T) {
	nw := node.Must(node.New(node.Config{Positions: []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Seed: 6}))
	nw.Install(func(n *node.Node) node.Protocol { return &sinkProto{} })
	c := NewCBR(nw.Nodes[0], 1, 0.5, 100)
	c.StartAt(0.25)
	nw.Kernel.At(2, func() { nw.Nodes[0].Fail() })
	nw.Kernel.At(4, func() { nw.Nodes[0].Recover() })
	nw.Run(6)
	// Without the outage we'd have 12 generations; the 2-second outage
	// suppresses 4 of them.
	if c.Sent() != 8 {
		t.Fatalf("sent %d, want 8 (outage suppression)", c.Sent())
	}
}

func TestCBRRandomStartWithinInterval(t *testing.T) {
	nw := node.Must(node.New(node.Config{Positions: []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Seed: 7}))
	nw.Install(func(n *node.Node) node.Protocol { return &sinkProto{} })
	c := NewCBR(nw.Nodes[0], 1, 2.0, 100)
	c.Start()
	nw.Run(1.99)
	if c.Sent() != 1 {
		t.Fatalf("sent %d, want exactly 1 within the first interval", c.Sent())
	}
}

func TestCBRBadIntervalPanics(t *testing.T) {
	nw := node.Must(node.New(node.Config{Positions: []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Seed: 8}))
	nw.Install(func(n *node.Node) node.Protocol { return &sinkProto{} })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCBR(nw.Nodes[0], 1, 0, 100)
}
