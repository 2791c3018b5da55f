// Package experiments reproduces every figure of the paper's
// evaluation plus the ablations listed in DESIGN.md. Suite.Studies is
// the one list of them: each Study runs its cells across seeds in
// parallel and returns the table the paper plots. All but fig2 and
// abl3 are a grid — an x-axis crossed with one to three protocol
// variants, one scenario document per (point, variant, seed) cell,
// folded per point — run by one runner and rendered by one table
// renderer. Every cell, fig2's two runs included, is built by
// scenario.BuildWith and advanced, drained and judged by scenario.Run.
package experiments

import (
	"routeless/internal/metrics"
	"routeless/internal/rng"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/traffic"
)

// RunMetrics is one simulation run's outcome in the paper's units. The
// type lives with the assembler that computes it; this alias stays
// because the repository benchmark (bench/, frozen) names it.
type RunMetrics = scenario.RunMetrics

// Agg aggregates RunMetrics across seeds.
type Agg struct {
	Delay, Hops, Delivery, MACPackets, EnergyJ stats.Welford

	// Election is the per-hop local election latency, Delay/Hops per
	// run that delivered anything (fig_mega).
	Election stats.Welford
	// RepairS and Repairs are the mean repair latency in seconds and
	// the repair count, read from the run's repair-latency histogram
	// (churn only).
	RepairS, Repairs stats.Welford
}

// Add folds one run into the aggregate.
func (a *Agg) Add(m RunMetrics) {
	a.Delay.Add(m.Delay)
	a.Hops.Add(m.Hops)
	a.Delivery.Add(m.Delivery)
	a.MACPackets.Add(m.MACPackets)
	a.EnergyJ.Add(m.EnergyJ)
	if m.Hops > 0 {
		a.Election.Add(m.Delay / m.Hops)
	}
}

// Study is one figure or ablation as the CLI runs it.
type Study struct {
	Name string
	// Run executes the study on workers sweep workers (0 = GOMAXPROCS).
	// A non-nil journal receives one record per cell, in cell order.
	Run func(workers int, j *metrics.Journal) Result
}

// Result is what a study prints.
type Result struct {
	Table  *stats.Table
	Events uint64      // kernel events its runs executed
	Fig2   *Fig2Result // fig2's relay traces, for its maps; nil for every other study
}

// Suite holds every study's configuration; zero fields take the
// paper-scale defaults.
type Suite struct {
	Fig1  Fig1Config
	Fig2  Fig2Config
	Fig34 Fig34Config
	Abl3  Abl3Config
	Churn ChurnConfig
	Mega  MegaConfig
}

// Studies returns the twelve studies in the order the CLI runs them:
// fig1–4, abl1–6, churn, mega.
func (s Suite) Studies() []Study {
	fig2, abl3 := s.Fig2.withDefaults(), s.Abl3.withDefaults()
	mega := megaGrid(s.Mega).study()
	mega.Name = "mega" // its cells and journal records keep fig_mega
	return []Study{
		fig1Grid(s.Fig1).study(),
		{Name: "fig2", Run: func(workers int, _ *metrics.Journal) Result {
			res := RunFig2(fig2, workers)
			return Result{Table: Fig2Table(res), Events: res.Events, Fig2: &res}
		}},
		fig3Grid(s.Fig34).study(),
		fig4Grid(s.Fig34).study(),
		abl1Grid(s.Fig1).study(),
		abl2Grid(s.Fig34).study(),
		{Name: "abl3", Run: func(workers int, _ *metrics.Journal) Result {
			means, events := runAbl3(abl3, workers)
			return Result{Table: abl3Table(abl3.Sizes, means), Events: events}
		}},
		abl4Grid(s.Fig34).study(),
		abl5Grid(s.Fig34).study(),
		abl6Grid(s.Fig34).study(),
		churnGrid(s.Churn).study(),
		mega,
	}
}

// field is the paper's arena as a document without flows: n nodes
// placed uniformly on a square of the given side, redrawn until the
// unit-disk graph is connected, running proto at backoff quantum
// lambda.
func field(n int, side, rangeM float64, seed int64, proto string, lambda sim.Time) scenario.Scenario {
	return scenario.Scenario{
		Seed: seed, N: n, Width: side, Height: side, Range: rangeM,
		Placement: scenario.PlaceUniform, Connected: true,
		Protocol: proto, Lambda: float64(lambda),
	}
}

// randomFlows draws count connections from the seed's traffic stream
// and returns them as a document's flow list — both directions of each
// pair when bidir ("the traffic being bidirectional", §4.3) — together
// with the endpoint ids, which the failure studies shield from faults.
func randomFlows(seed int64, n, count int, bidir bool) (flows []scenario.Flow, endpoints []int) {
	for _, p := range traffic.RandomPairs(rng.New(seed, rng.StreamTraffic), n, count) {
		src, dst := int(p.Src), int(p.Dst)
		endpoints = append(endpoints, src, dst)
		flows = append(flows, scenario.Flow{Src: src, Dst: dst})
		if bidir {
			flows = append(flows, scenario.Flow{Src: dst, Dst: src})
		}
	}
	return flows, endpoints
}
