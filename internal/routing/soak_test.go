package routing

import (
	"testing"

	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/rng"
	"routeless/internal/stats"
	"routeless/internal/traffic"
)

// TestSoakRoutelessUnderChurn runs a long simulation with continuous
// traffic and failure churn, then checks that per-node protocol state
// stayed bounded (the GC sweeps actually work) and delivery stayed
// healthy. This is the leak check for the relay/discovery state
// machines.
func TestSoakRoutelessUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	nw := node.Must(node.New(node.Config{
		N: 150, Rect: geo.NewRect(1100, 1100), Seed: 77, EnsureConnected: true,
	}))
	rrs := make([]*Routeless, 0, 150)
	nw.Install(func(n *node.Node) node.Protocol {
		r := NewRouteless(RoutelessConfig{})
		rrs = append(rrs, r)
		return r
	})
	var meter stats.Meter
	for _, n := range nw.Nodes {
		n := n
		n.OnAppReceive = func(p *packet.Packet) {
			meter.PacketReceived(float64(nw.Kernel.Now()-p.CreatedAt), p.HopCount)
		}
	}
	pairs := traffic.RandomPairs(rng.New(77, rng.StreamTraffic), 150, 8)
	endpoint := map[packet.NodeID]bool{}
	var cbrs []*traffic.CBR
	for _, p := range pairs {
		endpoint[p.Src], endpoint[p.Dst] = true, true
		a := traffic.NewCBR(nw.Nodes[p.Src], p.Dst, 0.5, 64)
		b := traffic.NewCBR(nw.Nodes[p.Dst], p.Src, 0.5, 64)
		a.OnSend = meter.PacketSent
		b.OnSend = meter.PacketSent
		a.Start()
		b.Start()
		cbrs = append(cbrs, a, b)
	}
	for _, n := range nw.Nodes {
		if endpoint[n.ID] {
			continue
		}
		fp := node.NewFailureProcess(n, rng.ForNode(77, rng.StreamFailure, int(n.ID)))
		fp.OffFraction = 0.05
		fp.Start()
	}
	nw.Run(120)
	for _, c := range cbrs {
		c.Stop()
	}
	nw.Run(130)

	if meter.Sent < 3500 {
		t.Fatalf("only %d packets generated — soak rig broken", meter.Sent)
	}
	if r := meter.DeliveryRatio(); r < 0.95 {
		t.Fatalf("delivery %v over 120 s with churn", r)
	}
	// State bound: after two minutes and ~4k packets, per-node relay
	// state must be a handful of recent entries, not thousands.
	for i, r := range rrs {
		if len(r.relays) > 200 {
			t.Fatalf("node %d holds %d relay states — GC leak", i, len(r.relays))
		}
		if len(r.discPending) > 200 {
			t.Fatalf("node %d holds %d discovery states — GC leak", i, len(r.discPending))
		}
	}
}
