package experiments

import (
	"math"
	"math/rand"
	"slices"
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
	cfg := smallFig1()
	rows, _ := fig1Grid(cfg).run(0, nil)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		c1, ssaf := &r[0], &r[1]
		// Sanity: both protocols actually deliver.
		if c1.Delivery.Mean() < 0.5 || ssaf.Delivery.Mean() < 0.5 {
			t.Fatalf("interval %v: implausible delivery c1=%v ssaf=%v",
				cfg.Intervals[i], c1.Delivery.Mean(), ssaf.Delivery.Mean())
		}
		if c1.Hops.Mean() <= 0 || ssaf.Hops.Mean() <= 0 {
			t.Fatalf("interval %v: zero hops", cfg.Intervals[i])
		}
	}
	// Congestion effect: lighter traffic delivers at least as well.
	light, heavy := rows[1], rows[0]
	if light[0].Delivery.Mean() < heavy[0].Delivery.Mean()-0.05 {
		t.Fatalf("delivery should not degrade with lighter traffic: %v vs %v",
			light[0].Delivery.Mean(), heavy[0].Delivery.Mean())
	}
	// SSAF's headline: no worse hop counts at light load (paper §3).
	if ssaf, c1 := light[1].Hops.Mean(), light[0].Hops.Mean(); ssaf > c1*1.08 {
		t.Fatalf("SSAF hops %v should not exceed counter-1 hops %v", ssaf, c1)
	}
}

func TestFig3Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := smallFig34()
	rows, _ := fig3Grid(cfg).run(0, nil)
	for i, r := range rows {
		pairs, aodv, rr := cfg.Pairs[i], &r[0], &r[1]
		if aodv.Delivery.Mean() < 0.93 || rr.Delivery.Mean() < 0.93 {
			t.Fatalf("pairs %d: delivery aodv=%v rr=%v", pairs,
				aodv.Delivery.Mean(), rr.Delivery.Mean())
		}
		// "Routeless Routing … incurring larger end-to-end delays" (§4.3).
		if rr.Delay.Mean() < aodv.Delay.Mean()*0.8 {
			t.Fatalf("pairs %d: RR delay %v unexpectedly below AODV %v",
				pairs, rr.Delay.Mean(), aodv.Delay.Mean())
		}
		// "packets in Routeless Routing take on average fewer hops".
		if rr.Hops.Mean() > aodv.Hops.Mean()*1.1 {
			t.Fatalf("pairs %d: RR hops %v exceed AODV %v",
				pairs, rr.Hops.Mean(), aodv.Hops.Mean())
		}
		// "Routeless Routing requires fewer packet transmissions in the
		// MAC layer" — allow parity noise at tiny scale.
		if rr.MACPackets.Mean() > aodv.MACPackets.Mean()*1.35 {
			t.Fatalf("pairs %d: RR MAC packets %v far exceed AODV %v",
				pairs, rr.MACPackets.Mean(), aodv.MACPackets.Mean())
		}
	}
}

func TestFig4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rows, _ := fig4Grid(smallFig34()).run(0, nil)
	const aodv, rr = 0, 1
	clean, failing := rows[0], rows[len(rows)-1]
	// Routeless stays flat under failures: MAC packets and delay grow
	// by at most a small factor (paper: "they remain constant").
	if grow := failing[rr].MACPackets.Mean() / clean[rr].MACPackets.Mean(); grow > 1.4 {
		t.Fatalf("RR MAC packets grew %.2fx under failures", grow)
	}
	// AODV pays: its packet count must grow strictly faster than RR's.
	aodvGrow := failing[aodv].MACPackets.Mean() / clean[aodv].MACPackets.Mean()
	rrGrow := failing[rr].MACPackets.Mean() / clean[rr].MACPackets.Mean()
	if aodvGrow <= rrGrow {
		t.Fatalf("AODV packet growth %.2fx should exceed RR's %.2fx", aodvGrow, rrGrow)
	}
	// Both keep delivering (AODV by spending packets, RR by rerouting).
	if failing[rr].Delivery.Mean() < 0.9 {
		t.Fatalf("RR delivery %v under 10%% failures", failing[rr].Delivery.Mean())
	}
	if failing[aodv].Delivery.Mean() < 0.9 {
		t.Fatalf("AODV delivery %v under 10%% failures", failing[aodv].Delivery.Mean())
	}
}

func TestFig2Avoidance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := RunFig2(Fig2Config{Seed: 3, Nodes: 300, Terrain: 1500, Duration: 30}, 0)
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
	rows, _ := abl1Grid(cfg).run(0, nil)
	ssaf, ssafc := &rows[0][0], &rows[0][1]
	if ssafc.MACPackets.Mean() >= ssaf.MACPackets.Mean() {
		t.Fatalf("SSAF-C packets %v should undercut SSAF %v",
			ssafc.MACPackets.Mean(), ssaf.MACPackets.Mean())
	}
}

func TestAbl2LambdaTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := smallFig34()
	cfg.Lambdas, cfg.AblPairs = []sim.Time{2e-3, 100e-3}, 4
	rows, _ := abl2Grid(cfg).run(0, nil)
	small, large := &rows[0][0], &rows[1][0]
	// §4.1: "A large λ would increase the end-to-end delay".
	if large.Delay.Mean() <= small.Delay.Mean() {
		t.Fatalf("λ=100ms delay %v should exceed λ=2ms delay %v",
			large.Delay.Mean(), small.Delay.Mean())
	}
}

func TestAbl3ElectionScaling(t *testing.T) {
	cfg := Abl3Config{Sizes: []int{2, 20}, Trials: 120, Seed: 7}
	means, _ := runAbl3(cfg, 0)
	small, big := means[0][0], means[0][1] // uniform, loss 0
	if small.single <= big.single {
		t.Fatalf("single-leader probability should fall with crowd size: %v vs %v",
			small.single, big.single)
	}
	if big.rounds < 1 {
		t.Fatalf("mean rounds %v below 1", big.rounds)
	}
	if got, want := abl3Table(cfg.Sizes, means).NumRows(), len(abl3Variants())*len(cfg.Sizes); got != want {
		t.Fatalf("table has %d rows, want %d", got, want)
	}
}

// abl3Rows runs abl3 once and returns the rows of each wanted variant,
// one per size.
func abl3Rows(t *testing.T, cfg Abl3Config, wants ...abl3Variant) [][]abl3Out {
	t.Helper()
	means, _ := runAbl3(cfg, 0)
	rows := make([][]abl3Out, len(wants))
	for i, want := range wants {
		v := slices.Index(abl3Variants(), want)
		if v < 0 {
			t.Fatalf("abl3 runs no variant %v", want)
		}
		rows[i] = means[v]
	}
	return rows
}

// The gradient metric gives every contender its own priority band, so
// round 1 almost always has exactly one winner and the arbiter needs
// no re-trigger.
func TestAbl3GradientBands(t *testing.T) {
	cfg := Abl3Config{Sizes: []int{3, 6}, Trials: 20, Seed: 7}
	for i, m := range abl3Rows(t, cfg, abl3Variant{"gradient", 0})[0] {
		if m.single < 0.8 || m.none != 0 || m.rounds != 1 {
			t.Errorf("size %d: p_single %v, p_collision %v, mean_rounds %v; want ≥ 0.8, 0, 1",
				cfg.Sizes[i], m.single, m.none, m.rounds)
		}
	}
}

// Link loss reaches the trials: the lossy rows spend other broadcasts
// and take another time to a leader than the lossless rows of the same
// draws, and the arbiter still resolves elections (mean rounds ≥ 1).
func TestAbl3LossReachesTrials(t *testing.T) {
	cfg := Abl3Config{Sizes: []int{4, 8}, Trials: 20, Seed: 7}
	for _, metric := range []string{"uniform", "gradient"} {
		rows := abl3Rows(t, cfg, abl3Variant{metric, 0}, abl3Variant{metric, 0.1})
		clean, lossy := rows[0], rows[1]
		for i := range lossy {
			if lossy[i].rounds < 1 {
				t.Errorf("%s size %d: lossy mean_rounds %v, want ≥ 1", metric, cfg.Sizes[i], lossy[i].rounds)
			}
			if lossy[i].bcasts == clean[i].bcasts || lossy[i].latencyMS == clean[i].latencyMS {
				t.Errorf("%s size %d: loss 0.1 left broadcasts %v → %v or latency %v → %v as at loss 0",
					metric, cfg.Sizes[i], clean[i].bcasts, lossy[i].bcasts, clean[i].latencyMS, lossy[i].latencyMS)
			}
		}
	}
}

// With uniform backoff on [0, λ) and latency λ/4, round 1 has a single
// leader exactly when the two earliest of n draws lie more than λ/4
// apart, which has probability (3/4)ⁿ. The measured share must lie in
// its 99.9 % binomial interval at every size; at 95 % the seed would
// decide the verdict (seed 7 at 1000 trials misses at n = 5 by chance).
func TestAbl3SingleLeaderClosedForm(t *testing.T) {
	if testing.Short() {
		t.Skip("election sweep")
	}
	cfg := Abl3Config{Sizes: []int{2, 5, 10, 20}, Trials: 2000, Seed: 7}
	for i, m := range abl3Rows(t, cfg, abl3Variant{"uniform", 0})[0] {
		n := cfg.Sizes[i]
		p := math.Pow(0.75, float64(n))
		half := 3.29 * math.Sqrt(p*(1-p)/float64(cfg.Trials))
		if math.Abs(m.single-p) > half {
			t.Errorf("n=%d: p_single_leader_r1 %v outside (3/4)^n = %.4f ± %.4f", n, m.single, p, half)
		}
	}
}

func TestAbl4GradientCongestion(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := smallFig34()
	cfg.Pairs = []int{4}
	rows, _ := abl4Grid(cfg).run(0, nil)
	rr, grad := &rows[0][0], &rows[0][1]
	// §4.4: Gradient Routing "makes the network more congested".
	if grad.MACPackets.Mean() <= rr.MACPackets.Mean() {
		t.Fatalf("gradient MAC packets %v should exceed routeless %v",
			grad.MACPackets.Mean(), rr.MACPackets.Mean())
	}
}

func TestTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := smallFig1()
	cfg.Intervals = []float64{5}
	cfg.Seeds = []int64{1}
	tb := fig1Grid(cfg).study().Run(0, nil).Table
	if tb.NumRows() != 1 || tb.String() == "" || tb.CSV() == "" {
		t.Fatal("fig1 table broken")
	}
}

func TestAbl5SleepSavesEnergyKeepsDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := smallFig34()
	cfg.SleepFractions, cfg.AblPairs = []float64{0, 0.3}, 4
	rows, _ := abl5Grid(cfg).run(0, nil)
	awake, dozing := &rows[0][0], &rows[1][0]
	// §4.2: sleeping route nodes must not break delivery...
	if dozing.Delivery.Mean() < 0.88 {
		t.Fatalf("delivery %v with 30%% sleepers", dozing.Delivery.Mean())
	}
	// ...and must save real energy.
	if dozing.EnergyJ.Mean() >= awake.EnergyJ.Mean()*0.9 {
		t.Fatalf("energy %v with sleepers vs %v awake — no savings",
			dozing.EnergyJ.Mean(), awake.EnergyJ.Mean())
	}
}

func TestFig2SVGAndAbl6(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := RunFig2(Fig2Config{Seed: 3, Nodes: 120, Terrain: 1000, Duration: 15}, 0)
	svg := Fig2SVG(res, 400)
	for _, want := range []string{"<svg", "</svg>", ">A<", ">B<", ">C<", ">D<", "#0072b2"} {
		if !containsRune(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	cfg := smallFig34()
	cfg.Pairs = []int{3}
	g := abl6Grid(cfg)
	rows, _ := g.run(0, nil)
	if len(rows) != 1 || rows[0][0].Delivery.Mean() < 0.9 || rows[0][1].Delivery.Mean() < 0.9 {
		t.Fatalf("abl6 deliveries pure=%v sig=%v",
			rows[0][0].Delivery.Mean(), rows[0][1].Delivery.Mean())
	}
	if g.table(rows).NumRows() != 1 {
		t.Fatal("abl6 table broken")
	}
}
