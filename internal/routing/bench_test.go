package routing

import (
	"testing"

	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/rng"
	"routeless/internal/sim"
	"routeless/internal/traffic"
)

// benchNetwork builds a mid-size field with the given protocol factory
// and runs bidirectional CBR over 5 pairs for `seconds`, returning the
// number of delivered application packets.
func benchNetwork(b *testing.B, install func(n *node.Node) node.Protocol, seconds float64) uint64 {
	b.Helper()
	nw := node.Must(node.New(node.Config{
		N: 150, Rect: geo.NewRect(1100, 1100), Seed: 1, EnsureConnected: true,
	}))
	nw.Install(install)
	delivered := uint64(0)
	for _, n := range nw.Nodes {
		n.OnAppReceive = func(*packet.Packet) { delivered++ }
	}
	for _, p := range traffic.RandomPairs(rng.New(1, rng.StreamTraffic), 150, 5) {
		traffic.NewCBR(nw.Nodes[p.Src], p.Dst, 0.5, 64).Start()
		traffic.NewCBR(nw.Nodes[p.Dst], p.Src, 0.5, 64).Start()
	}
	nw.Run(sim.Time(seconds))
	return delivered
}

// BenchmarkRoutelessSteadyState measures the full Routeless stack under
// 10 CBR flows for 10 simulated seconds per iteration.
func BenchmarkRoutelessSteadyState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := benchNetwork(b, func(n *node.Node) node.Protocol {
			return NewRouteless(RoutelessConfig{})
		}, 10)
		b.ReportMetric(float64(d), "delivered")
	}
}

// BenchmarkAODVSteadyState is the same workload through AODV.
func BenchmarkAODVSteadyState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := benchNetwork(b, func(n *node.Node) node.Protocol {
			return NewAODV(AODVConfig{NoHello: true})
		}, 10)
		b.ReportMetric(float64(d), "delivered")
	}
}

// BenchmarkActiveTableObserve measures the passive-listening hot path.
func BenchmarkActiveTableObserve(b *testing.B) {
	t := NewActiveTable()
	for i := 0; i < b.N; i++ {
		t.Observe(packet.NodeID(i%64), 1+i%10, uint32(i/64), sim.Time(i)*1e-3)
	}
}
