// Benchmarks regenerating every figure of the paper's evaluation plus
// the DESIGN.md ablations, at a reduced scale chosen so a full
// `go test -bench=.` finishes in minutes. Full paper scale is available
// through cmd/wmansim (see EXPERIMENTS.md for recorded results).
//
// Each benchmark iteration runs the complete experiment sweep; custom
// metrics expose the headline numbers (delivery ratio, delay, MAC
// packets) so regressions in protocol behavior — not just speed — show
// up in benchmark diffs.
package routeless_test

import (
	"testing"

	"routeless/internal/experiments"
	"routeless/internal/sim"
)

func benchFig1Config() experiments.Fig1Config {
	return experiments.Fig1Config{
		Nodes: 60, Terrain: 800, Connections: 15,
		Intervals: []float64{1, 5, 10},
		Duration:  10, Seeds: []int64{1},
	}
}

func benchFig34Config() experiments.Fig34Config {
	return experiments.Fig34Config{
		Nodes: 150, Terrain: 1100, Duration: 20,
		Pairs: []int{2, 6}, Seeds: []int64{1},
		FailurePcts: []float64{0, 0.10}, Fig4Pairs: 6,
	}
}

// BenchmarkFig1 regenerates Figure 1: SSAF vs counter-1 flooding across
// packet generation intervals (delay, hops, delivery panels).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFig1(benchFig1Config())
		last := rows[len(rows)-1]
		b.ReportMetric(last.SSAF.Delivery.Mean(), "ssaf-delivery")
		b.ReportMetric(last.Counter1.Delivery.Mean(), "c1-delivery")
		b.ReportMetric(last.SSAF.Hops.Mean(), "ssaf-hops")
		b.ReportMetric(last.Counter1.Hops.Mean(), "c1-hops")
		var events uint64
		for _, r := range rows {
			events += r.Events
		}
		b.ReportMetric(float64(events), "events/op")
	}
}

// BenchmarkFig2 regenerates Figure 2: Routeless Routing's automatic
// congestion avoidance (relay displacement away from the hot center).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig2(experiments.Fig2Config{
			Seed: 3, Nodes: 300, Terrain: 1500, Duration: 30,
		})
		b.ReportMetric(res.CenterShareAlone, "center-share-alone")
		b.ReportMetric(res.CenterShareWithCross, "center-share-congested")
	}
}

// BenchmarkFig3 regenerates Figure 3: Routeless Routing vs AODV without
// failures (delay, delivery, MAC packets, hops vs pair count).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFig3(benchFig34Config())
		last := rows[len(rows)-1]
		b.ReportMetric(last.Routeless.MACPackets.Mean(), "rr-mac-pkts")
		b.ReportMetric(last.AODV.MACPackets.Mean(), "aodv-mac-pkts")
		b.ReportMetric(last.Routeless.Delay.Mean()*1e3, "rr-delay-ms")
		b.ReportMetric(last.AODV.Delay.Mean()*1e3, "aodv-delay-ms")
	}
}

// BenchmarkFig4 regenerates Figure 4: the same comparison under §4.3
// duty-cycle node failures (Routeless stays flat; AODV pays).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFig4(benchFig34Config())
		clean, failing := rows[0], rows[len(rows)-1]
		b.ReportMetric(failing.AODV.MACPackets.Mean()/clean.AODV.MACPackets.Mean(), "aodv-pkt-growth")
		b.ReportMetric(failing.Routeless.MACPackets.Mean()/clean.Routeless.MACPackets.Mean(), "rr-pkt-growth")
		b.ReportMetric(failing.Routeless.Delivery.Mean(), "rr-delivery@10%")
	}
}

// BenchmarkAblationSSAFCancel regenerates ABL1: SSAF with vs without
// duplicate cancellation.
func BenchmarkAblationSSAFCancel(b *testing.B) {
	cfg := benchFig1Config()
	cfg.Intervals = []float64{2}
	for i := 0; i < b.N; i++ {
		rows := experiments.RunAbl1(cfg)
		b.ReportMetric(rows[0].SSAF.MACPackets.Mean(), "ssaf-mac-pkts")
		b.ReportMetric(rows[0].SSAFC.MACPackets.Mean(), "ssafc-mac-pkts")
	}
}

// BenchmarkAblationLambda regenerates ABL2: the §4.1 λ tradeoff.
func BenchmarkAblationLambda(b *testing.B) {
	cfg := benchFig34Config()
	lambdas := []sim.Time{5e-3, 50e-3}
	for i := 0; i < b.N; i++ {
		rows := experiments.RunAbl2(cfg, lambdas, 4)
		b.ReportMetric(rows[0].RR.Delay.Mean()*1e3, "delay-ms@5ms")
		b.ReportMetric(rows[len(rows)-1].RR.Delay.Mean()*1e3, "delay-ms@50ms")
	}
}

// BenchmarkElection regenerates ABL3: local leader election outcome
// probabilities on the abstract medium.
func BenchmarkElection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunAbl3(0, []int{2, 10, 50}, 100, 10e-3, 7)
		b.ReportMetric(rows[0].SingleLeader, "p-single@2")
		b.ReportMetric(rows[len(rows)-1].SingleLeader, "p-single@50")
	}
}

// BenchmarkAblationGradient regenerates ABL4: Routeless vs Gradient
// Routing transmissions (§4.4 congestion claim).
func BenchmarkAblationGradient(b *testing.B) {
	cfg := benchFig34Config()
	cfg.Pairs = []int{4}
	for i := 0; i < b.N; i++ {
		rows := experiments.RunAbl4(cfg)
		b.ReportMetric(rows[0].Routeless.MACPackets.Mean(), "rr-mac-pkts")
		b.ReportMetric(rows[0].Gradient.MACPackets.Mean(), "grad-mac-pkts")
	}
}

// BenchmarkAblationSleep regenerates ABL5: duty-cycled sleeping under
// Routeless Routing (§4.2 energy claim).
func BenchmarkAblationSleep(b *testing.B) {
	cfg := benchFig34Config()
	for i := 0; i < b.N; i++ {
		rows := experiments.RunAbl5(cfg, []float64{0, 0.3}, 4)
		b.ReportMetric(rows[0].RR.EnergyJ.Mean(), "energy-J-awake")
		b.ReportMetric(rows[1].RR.EnergyJ.Mean(), "energy-J-30%sleep")
		b.ReportMetric(rows[1].RR.Delivery.Mean(), "delivery-30%sleep")
	}
}
