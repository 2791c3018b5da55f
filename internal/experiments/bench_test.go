package experiments

// Benchmarks regenerating every figure of the paper's evaluation plus
// the DESIGN.md ablations, at a reduced scale chosen so a full
// `go test -bench . ./internal/experiments` finishes in seconds. Full
// paper scale is available through cmd/wmansim (see EXPERIMENTS.md for
// recorded results).
//
// Each benchmark iteration runs the complete experiment sweep; custom
// metrics expose the headline numbers (delivery ratio, delay, MAC
// packets) so regressions in protocol behavior — not just speed — show
// up in benchmark diffs.

import (
	"testing"

	"routeless/internal/sim"
)

func benchFig1Config() Fig1Config {
	return Fig1Config{
		Nodes: 60, Terrain: 800, Connections: 15,
		Intervals: []float64{1, 5, 10},
		Duration:  10, Seeds: []int64{1},
	}
}

func benchFig34Config() Fig34Config {
	return Fig34Config{
		Nodes: 150, Terrain: 1100, Duration: 20,
		Pairs: []int{2, 6}, Seeds: []int64{1},
		FailurePcts: []float64{0, 0.10}, Fig4Pairs: 6,
		AblPairs: 4,
	}
}

// BenchmarkFig1 regenerates Figure 1: SSAF vs counter-1 flooding across
// packet generation intervals (delay, hops, delivery panels).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, events := fig1Grid(benchFig1Config()).run(0, nil)
		c1, ssaf := &rows[len(rows)-1][0], &rows[len(rows)-1][1]
		b.ReportMetric(ssaf.Delivery.Mean(), "ssaf-delivery")
		b.ReportMetric(c1.Delivery.Mean(), "c1-delivery")
		b.ReportMetric(ssaf.Hops.Mean(), "ssaf-hops")
		b.ReportMetric(c1.Hops.Mean(), "c1-hops")
		var total uint64
		for _, e := range events {
			total += e
		}
		b.ReportMetric(float64(total), "events/op")
	}
}

// BenchmarkFig2 regenerates Figure 2: Routeless Routing's automatic
// congestion avoidance (relay displacement away from the hot center).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunFig2(Fig2Config{Seed: 3, Nodes: 300, Terrain: 1500, Duration: 30}, 0)
		b.ReportMetric(res.CenterShareAlone, "center-share-alone")
		b.ReportMetric(res.CenterShareWithCross, "center-share-congested")
	}
}

// BenchmarkFig3 regenerates Figure 3: Routeless Routing vs AODV without
// failures (delay, delivery, MAC packets, hops vs pair count).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := fig3Grid(benchFig34Config()).run(0, nil)
		aodv, rr := &rows[len(rows)-1][0], &rows[len(rows)-1][1]
		b.ReportMetric(rr.MACPackets.Mean(), "rr-mac-pkts")
		b.ReportMetric(aodv.MACPackets.Mean(), "aodv-mac-pkts")
		b.ReportMetric(rr.Delay.Mean()*1e3, "rr-delay-ms")
		b.ReportMetric(aodv.Delay.Mean()*1e3, "aodv-delay-ms")
	}
}

// BenchmarkFig4 regenerates Figure 4: the same comparison under §4.3
// duty-cycle node failures (Routeless stays flat; AODV pays).
func BenchmarkFig4(b *testing.B) {
	const aodv, rr = 0, 1
	for i := 0; i < b.N; i++ {
		rows, _ := fig4Grid(benchFig34Config()).run(0, nil)
		clean, failing := rows[0], rows[len(rows)-1]
		b.ReportMetric(failing[aodv].MACPackets.Mean()/clean[aodv].MACPackets.Mean(), "aodv-pkt-growth")
		b.ReportMetric(failing[rr].MACPackets.Mean()/clean[rr].MACPackets.Mean(), "rr-pkt-growth")
		b.ReportMetric(failing[rr].Delivery.Mean(), "rr-delivery@10%")
	}
}

// BenchmarkAblationSSAFCancel regenerates ABL1: SSAF with vs without
// duplicate cancellation.
func BenchmarkAblationSSAFCancel(b *testing.B) {
	cfg := benchFig1Config()
	cfg.Intervals = []float64{2}
	for i := 0; i < b.N; i++ {
		rows, _ := abl1Grid(cfg).run(0, nil)
		b.ReportMetric(rows[0][0].MACPackets.Mean(), "ssaf-mac-pkts")
		b.ReportMetric(rows[0][1].MACPackets.Mean(), "ssafc-mac-pkts")
	}
}

// BenchmarkAblationLambda regenerates ABL2: the §4.1 λ tradeoff.
func BenchmarkAblationLambda(b *testing.B) {
	cfg := benchFig34Config()
	cfg.Lambdas = []sim.Time{5e-3, 50e-3}
	for i := 0; i < b.N; i++ {
		rows, _ := abl2Grid(cfg).run(0, nil)
		b.ReportMetric(rows[0][0].Delay.Mean()*1e3, "delay-ms@5ms")
		b.ReportMetric(rows[len(rows)-1][0].Delay.Mean()*1e3, "delay-ms@50ms")
	}
}

// BenchmarkElection regenerates ABL3: local leader election outcome
// probabilities on the abstract medium.
func BenchmarkElection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		means, _ := runAbl3(Abl3Config{Sizes: []int{2, 10, 50}, Trials: 100, Seed: 7}, 0)
		uniform := means[0] // loss 0
		b.ReportMetric(uniform[0].single, "p-single@2")
		b.ReportMetric(uniform[len(uniform)-1].single, "p-single@50")
	}
}

// BenchmarkAblationGradient regenerates ABL4: Routeless vs Gradient
// Routing transmissions (§4.4 congestion claim).
func BenchmarkAblationGradient(b *testing.B) {
	cfg := benchFig34Config()
	cfg.Pairs = []int{4}
	for i := 0; i < b.N; i++ {
		rows, _ := abl4Grid(cfg).run(0, nil)
		b.ReportMetric(rows[0][0].MACPackets.Mean(), "rr-mac-pkts")
		b.ReportMetric(rows[0][1].MACPackets.Mean(), "grad-mac-pkts")
	}
}

// BenchmarkAblationSleep regenerates ABL5: duty-cycled sleeping under
// Routeless Routing (§4.2 energy claim).
func BenchmarkAblationSleep(b *testing.B) {
	cfg := benchFig34Config()
	cfg.SleepFractions = []float64{0, 0.3}
	for i := 0; i < b.N; i++ {
		rows, _ := abl5Grid(cfg).run(0, nil)
		b.ReportMetric(rows[0][0].EnergyJ.Mean(), "energy-J-awake")
		b.ReportMetric(rows[1][0].EnergyJ.Mean(), "energy-J-30%sleep")
		b.ReportMetric(rows[1][0].Delivery.Mean(), "delivery-30%sleep")
	}
}
