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

// steadyWindow is the simulated span of one steady-state iteration, and
// of the warm-up run before the timer starts.
const steadyWindow sim.Time = 10

// benchSteadyState builds a mid-size field with the given protocol
// factory, starts bidirectional CBR over 5 pairs and runs it for one
// window before the timer starts, so that each node's tables, dedup
// caches and state pools are warm. Each iteration then advances the
// same network one more window; "delivered" is the mean number of
// application packets delivered per window.
func benchSteadyState(b *testing.B, install func(n *node.Node) node.Protocol) {
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
	nw.Run(steadyWindow)
	warm := delivered
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Run(nw.Kernel.Now() + steadyWindow)
	}
	b.ReportMetric(float64(delivered-warm)/float64(b.N), "delivered")
}

// BenchmarkRoutelessSteadyState measures the full Routeless stack under
// 10 CBR flows, one further window of 10 simulated seconds per
// iteration.
func BenchmarkRoutelessSteadyState(b *testing.B) {
	benchSteadyState(b, func(n *node.Node) node.Protocol {
		return NewRouteless(RoutelessConfig{})
	})
}

// BenchmarkAODVSteadyState is the same workload through AODV.
func BenchmarkAODVSteadyState(b *testing.B) {
	benchSteadyState(b, func(n *node.Node) node.Protocol {
		return NewAODV()
	})
}

// BenchmarkActiveTableObserve measures the passive-listening hot path.
func BenchmarkActiveTableObserve(b *testing.B) {
	t := &ActiveTable{}
	for i := 0; i < b.N; i++ {
		t.Observe(packet.NodeID(i%64), 1+i%10, uint32(i/64), sim.Time(i)*1e-3)
	}
}
