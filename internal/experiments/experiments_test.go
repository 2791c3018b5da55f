package experiments

import (
	"math"
	"math/rand"
	"testing"

	"routeless/internal/geo"
	"routeless/internal/packet"
	"routeless/internal/sim"
	"routeless/internal/trace"
)

// Scaled-down configs keep the suite fast while preserving density and
// the qualitative shapes asserted below. Full-scale runs live behind
// cmd/wmansim and the benchmarks.

func smallFig1() Fig1Config {
	return Fig1Config{
		Nodes: 60, Terrain: 800, Connections: 15,
		Intervals: []float64{1, 5},
		Duration:  10, Seeds: []int64{1, 2},
	}
}

func smallFig34() Fig34Config {
	return Fig34Config{
		Nodes: 150, Terrain: 1100, Duration: 20,
		Pairs: []int{2, 6}, Seeds: []int64{1, 2},
		FailurePcts: []float64{0, 0.10}, Fig4Pairs: 6,
	}
}

func TestFig1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rows := RunFig1(smallFig1())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Sanity: both protocols actually deliver.
		if r.Counter1.Delivery.Mean() < 0.5 || r.SSAF.Delivery.Mean() < 0.5 {
			t.Fatalf("interval %v: implausible delivery c1=%v ssaf=%v",
				r.Interval, r.Counter1.Delivery.Mean(), r.SSAF.Delivery.Mean())
		}
		if r.Counter1.Hops.Mean() <= 0 || r.SSAF.Hops.Mean() <= 0 {
			t.Fatalf("interval %v: zero hops", r.Interval)
		}
	}
	// Congestion effect: lighter traffic delivers at least as well.
	light, heavy := rows[1], rows[0]
	if light.Counter1.Delivery.Mean() < heavy.Counter1.Delivery.Mean()-0.05 {
		t.Fatalf("delivery should not degrade with lighter traffic: %v vs %v",
			light.Counter1.Delivery.Mean(), heavy.Counter1.Delivery.Mean())
	}
	// SSAF's headline: no worse hop counts at light load (paper §3).
	if ssaf, c1 := light.SSAF.Hops.Mean(), light.Counter1.Hops.Mean(); ssaf > c1*1.08 {
		t.Fatalf("SSAF hops %v should not exceed counter-1 hops %v", ssaf, c1)
	}
}

func TestFig3Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rows := RunFig3(smallFig34())
	for _, r := range rows {
		aodv, rr := &r.AODV, &r.Routeless
		if aodv.Delivery.Mean() < 0.93 || rr.Delivery.Mean() < 0.93 {
			t.Fatalf("pairs %d: delivery aodv=%v rr=%v", r.Pairs,
				aodv.Delivery.Mean(), rr.Delivery.Mean())
		}
		// "Routeless Routing … incurring larger end-to-end delays" (§4.3).
		if rr.Delay.Mean() < aodv.Delay.Mean()*0.8 {
			t.Fatalf("pairs %d: RR delay %v unexpectedly below AODV %v",
				r.Pairs, rr.Delay.Mean(), aodv.Delay.Mean())
		}
		// "packets in Routeless Routing take on average fewer hops".
		if rr.Hops.Mean() > aodv.Hops.Mean()*1.1 {
			t.Fatalf("pairs %d: RR hops %v exceed AODV %v",
				r.Pairs, rr.Hops.Mean(), aodv.Hops.Mean())
		}
		// "Routeless Routing requires fewer packet transmissions in the
		// MAC layer" — allow parity noise at tiny scale.
		if rr.MACPackets.Mean() > aodv.MACPackets.Mean()*1.35 {
			t.Fatalf("pairs %d: RR MAC packets %v far exceed AODV %v",
				r.Pairs, rr.MACPackets.Mean(), aodv.MACPackets.Mean())
		}
	}
}

func TestFig4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rows := RunFig4(smallFig34())
	clean, failing := rows[0], rows[len(rows)-1]
	// Routeless stays flat under failures: MAC packets and delay grow
	// by at most a small factor (paper: "they remain constant").
	if grow := failing.Routeless.MACPackets.Mean() / clean.Routeless.MACPackets.Mean(); grow > 1.4 {
		t.Fatalf("RR MAC packets grew %.2fx under failures", grow)
	}
	// AODV pays: its packet count must grow strictly faster than RR's.
	aodvGrow := failing.AODV.MACPackets.Mean() / clean.AODV.MACPackets.Mean()
	rrGrow := failing.Routeless.MACPackets.Mean() / clean.Routeless.MACPackets.Mean()
	if aodvGrow <= rrGrow {
		t.Fatalf("AODV packet growth %.2fx should exceed RR's %.2fx", aodvGrow, rrGrow)
	}
	// Both keep delivering (AODV by spending packets, RR by rerouting).
	if failing.Routeless.Delivery.Mean() < 0.9 {
		t.Fatalf("RR delivery %v under 10%% failures", failing.Routeless.Delivery.Mean())
	}
	if failing.AODV.Delivery.Mean() < 0.9 {
		t.Fatalf("AODV delivery %v under 10%% failures", failing.AODV.Delivery.Mean())
	}
}

func TestFig2Avoidance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := RunFig2(Fig2Config{Seed: 3, Nodes: 300, Terrain: 1500, Duration: 30})
	if res.DeliveredAlone == 0 {
		t.Fatal("baseline scenario delivered nothing")
	}
	if res.DeliveredWithCross == 0 {
		t.Fatal("congested scenario delivered nothing")
	}
	// The §4.2 claim: with heavy cross-traffic, A→B relays shift away
	// from the congested center.
	if res.CenterShareWithCross >= res.CenterShareAlone {
		t.Fatalf("no avoidance: center share %.2f -> %.2f",
			res.CenterShareAlone, res.CenterShareWithCross)
	}
	if res.MeanCenterDistWithCross <= res.MeanCenterDistAlone {
		t.Fatalf("no avoidance: center distance %.0f -> %.0f",
			res.MeanCenterDistAlone, res.MeanCenterDistWithCross)
	}
	// Rendering must include every marker class.
	out := Fig2Render(res, 60)
	for _, marker := range []string{"A", "B", "C", "D", "o", "x"} {
		if !containsRune(out, marker) {
			t.Fatalf("render missing %q", marker)
		}
	}
	if Fig2Table(res).NumRows() != 2 {
		t.Fatal("table should have two scenario rows")
	}
}

// TestCenterUsageIsOrderIndependent: centerUsage folds a relay map into
// a float sum, so its result must not depend on the map's iteration
// order. Over one collector of ~300 relays, every call must return the
// same bits.
func TestCenterUsageIsOrderIndependent(t *testing.T) {
	const nodes = 320
	r := rand.New(rand.NewSource(11))
	pos := make([]geo.Point, nodes)
	for i := range pos {
		pos[i] = geo.Point{X: r.Float64() * 1500, Y: r.Float64() * 1500}
	}
	c := trace.NewPathCollector()
	origin := packet.NodeID(0)
	for range 2000 {
		relay := packet.NodeID(r.Intn(nodes))
		c.Record(relay, &packet.Packet{Origin: origin, Kind: packet.KindData})
	}
	if n := len(c.NodesUsed(origin, packet.KindData)); n < 290 {
		t.Fatalf("collector has %d relays, want ~300", n)
	}
	center := geo.Point{X: 750, Y: 750}
	share, dist := centerUsage(c, origin, pos, center, 375)
	for i := range 200 {
		s, d := centerUsage(c, origin, pos, center, 375)
		if math.Float64bits(s) != math.Float64bits(share) || math.Float64bits(d) != math.Float64bits(dist) {
			t.Fatalf("call %d: (%#x, %#x), first call (%#x, %#x)", i,
				math.Float64bits(s), math.Float64bits(d), math.Float64bits(share), math.Float64bits(dist))
		}
	}
}

func containsRune(s, sub string) bool {
	return len(sub) > 0 && len(s) > 0 && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestAbl1CancellationReducesTransmissions(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := smallFig1()
	cfg.Intervals = []float64{2}
	rows := RunAbl1(cfg)
	r := rows[0]
	if r.SSAFC.MACPackets.Mean() >= r.SSAF.MACPackets.Mean() {
		t.Fatalf("SSAF-C packets %v should undercut SSAF %v",
			r.SSAFC.MACPackets.Mean(), r.SSAF.MACPackets.Mean())
	}
}

func TestAbl2LambdaTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := smallFig34()
	rows := RunAbl2(cfg, []sim.Time{2e-3, 100e-3}, 4)
	small, large := rows[0], rows[1]
	// §4.1: "A large λ would increase the end-to-end delay".
	if large.RR.Delay.Mean() <= small.RR.Delay.Mean() {
		t.Fatalf("λ=100ms delay %v should exceed λ=2ms delay %v",
			large.RR.Delay.Mean(), small.RR.Delay.Mean())
	}
}

func TestAbl3ElectionScaling(t *testing.T) {
	rows := RunAbl3(0, []int{2, 20}, 120, 10e-3, 7)
	small, big := rows[0], rows[1]
	if small.SingleLeader <= big.SingleLeader {
		t.Fatalf("single-leader probability should fall with crowd size: %v vs %v",
			small.SingleLeader, big.SingleLeader)
	}
	if big.MeanRounds < 1 {
		t.Fatalf("mean rounds %v below 1", big.MeanRounds)
	}
	if Abl3Table(rows).NumRows() != 2 {
		t.Fatal("bad table")
	}
}

func TestAbl4GradientCongestion(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := smallFig34()
	cfg.Pairs = []int{4}
	rows := RunAbl4(cfg)
	r := rows[0]
	// §4.4: Gradient Routing "makes the network more congested".
	if r.Gradient.MACPackets.Mean() <= r.Routeless.MACPackets.Mean() {
		t.Fatalf("gradient MAC packets %v should exceed routeless %v",
			r.Gradient.MACPackets.Mean(), r.Routeless.MACPackets.Mean())
	}
}

func TestTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := smallFig1()
	cfg.Intervals = []float64{5}
	cfg.Seeds = []int64{1}
	rows := RunFig1(cfg)
	tb := Fig1Table(rows)
	if tb.NumRows() != 1 || tb.String() == "" || tb.CSV() == "" {
		t.Fatal("fig1 table broken")
	}
}

func TestAbl5SleepSavesEnergyKeepsDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := smallFig34()
	rows := RunAbl5(cfg, []float64{0, 0.3}, 4)
	awake, dozing := rows[0], rows[1]
	// §4.2: sleeping route nodes must not break delivery...
	if dozing.RR.Delivery.Mean() < 0.88 {
		t.Fatalf("delivery %v with 30%% sleepers", dozing.RR.Delivery.Mean())
	}
	// ...and must save real energy.
	if dozing.RR.EnergyJ.Mean() >= awake.RR.EnergyJ.Mean()*0.9 {
		t.Fatalf("energy %v with sleepers vs %v awake — no savings",
			dozing.RR.EnergyJ.Mean(), awake.RR.EnergyJ.Mean())
	}
}

func TestFig2SVGAndAbl6(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := RunFig2(Fig2Config{Seed: 3, Nodes: 120, Terrain: 1000, Duration: 15})
	svg := Fig2SVG(res, 400)
	for _, want := range []string{"<svg", "</svg>", ">A<", ">B<", ">C<", ">D<", "#0072b2"} {
		if !containsRune(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	cfg := smallFig34()
	cfg.Pairs = []int{3}
	rows := RunAbl6(cfg)
	if len(rows) != 1 || rows[0].Pure.Delivery.Mean() < 0.9 || rows[0].SignalTie.Delivery.Mean() < 0.9 {
		t.Fatalf("abl6 deliveries pure=%v sig=%v",
			rows[0].Pure.Delivery.Mean(), rows[0].SignalTie.Delivery.Mean())
	}
	if Abl6Table(rows).NumRows() != 1 {
		t.Fatal("abl6 table broken")
	}
}
