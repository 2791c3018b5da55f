package flood

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

// BenchmarkFloodSteadyState measures SSAF at Figure 1's density (100
// nodes in 1000×1000 m, 50 one-way CBR flows of 64-B packets every 2 s,
// λ = 10 ms). The field runs one window before the timer starts, so
// every node's dedup cache and pending list are warm; each iteration then
// advances the same network one more window of 10 simulated seconds.
// "delivered" is the mean number of application packets delivered per
// window.
func BenchmarkFloodSteadyState(b *testing.B) {
	nw := node.Must(node.New(node.Config{
		N: 100, Rect: geo.NewRect(1000, 1000), Seed: 1, EnsureConnected: true,
	}))
	Install(nw, SSAFConfig(10e-3, -55.1, -33.2))
	delivered := uint64(0)
	for _, n := range nw.Nodes {
		n.OnAppReceive = func(*packet.Packet) { delivered++ }
	}
	for _, p := range traffic.RandomPairs(rng.New(1, rng.StreamTraffic), 100, 50) {
		traffic.NewCBR(nw.Nodes[p.Src], p.Dst, 2, 64).Start()
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
