// Package experiments reproduces every figure of the paper's
// evaluation plus the ablations listed in DESIGN.md. Each figure has a
// Config (defaults reproduce the paper's scale; tests and benches scale
// down), a Run function that sweeps the figure's x-axis across seeds in
// parallel, and a Table formatter that prints the series the paper
// plots. A figure is a list of scenario.Spec values plus a fold: every
// cell is wired, advanced, drained and judged by scenario.Run.
package experiments

import (
	"routeless/internal/geo"
	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/rng"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/sweep"
	"routeless/internal/traffic"
)

// RunMetrics is one simulation run's outcome in the paper's units. The
// type lives with the assembler that computes it; this alias stays
// because the repository benchmark (bench/, frozen) names it.
type RunMetrics = scenario.RunMetrics

// Agg aggregates RunMetrics across seeds.
type Agg struct {
	Delay, Hops, Delivery, MACPackets, EnergyJ stats.Welford
}

// Add folds one run into the aggregate.
func (a *Agg) Add(m RunMetrics) {
	a.Delay.Add(m.Delay)
	a.Hops.Add(m.Hops)
	a.Delivery.Add(m.Delivery)
	a.MACPackets.Add(m.MACPackets)
	a.EnergyJ.Add(m.EnergyJ)
}

// runOut is one run's result as it crosses the sweep boundary: the
// paper-unit metrics, the kernel events the run executed, plus the
// final registry snapshot when the sweep needs it (nil otherwise —
// snapshots are not free).
type runOut struct {
	RunMetrics
	events uint64
	snap   *metrics.Snapshot
}

// assemble builds the cell's run on the sweep worker's runtime. A
// figure's specs are fixed by its config, so a build failure is a
// programming error in experiment setup and panics.
func assemble(ctx *sweep.Context, sp scenario.Spec) *scenario.Run {
	sp.Net.Runtime = ctx.Runtime()
	run, err := scenario.Assemble(sp)
	if err != nil {
		panic(err)
	}
	return run
}

// finish runs the cell to its end. A conservation-law violation
// panics: in a figure it is a simulator bug, not a measurement.
func finish(run *scenario.Run, snap bool) runOut {
	rm, err := run.Finish()
	if err != nil {
		panic(err)
	}
	nw := run.Network()
	out := runOut{RunMetrics: rm, events: nw.Processed()}
	if snap {
		out.snap = nw.Metrics.Snapshot()
	}
	return out
}

// field is the paper's arena: n nodes placed uniformly on a square of
// the given side, redrawn until the unit-disk graph is connected.
func field(n int, side, rangeM float64, seed int64) node.Config {
	return node.Config{
		N:               n,
		Rect:            geo.NewRect(side, side),
		Range:           rangeM,
		Seed:            seed,
		EnsureConnected: true,
	}
}

// randomFlows draws count connections from the seed's traffic stream
// and returns them as a Spec's flow list — both directions of each
// pair when bidir ("the traffic being bidirectional", §4.3) — together
// with the endpoint ids, which the failure studies shield from faults.
func randomFlows(seed int64, n, count int, interval float64, size int, bidir bool) (func(*node.Network) []scenario.CBRFlow, []packet.NodeID) {
	var flows []scenario.CBRFlow
	var endpoints []packet.NodeID
	for _, p := range traffic.RandomPairs(rng.New(seed, rng.StreamTraffic), n, count) {
		endpoints = append(endpoints, p.Src, p.Dst)
		flows = append(flows, scenario.CBRFlow{Src: p.Src, Dst: p.Dst, Interval: sim.Time(interval), Size: size})
		if bidir {
			flows = append(flows, scenario.CBRFlow{Src: p.Dst, Dst: p.Src, Interval: sim.Time(interval), Size: size})
		}
	}
	return func(*node.Network) []scenario.CBRFlow { return flows }, endpoints
}

// versusPoint decodes the two-variant x-axis flattening shared by
// Figures 1, 3 and 4 and ablations 1, 4 and 6: even points are the
// baseline variant, odd points the challenger.
func versusPoint(point int) (idx int, challenger bool) { return point / 2, point%2 == 1 }

// foldVersus aggregates a two-variant sweep's results per x-axis index,
// in cell order (point-major, seeds ascending), so the Welford fold
// sequence — and every table value — is the same at any worker count.
func foldVersus(n int, cells []sweep.Cell, results []runOut) (base, challenger []Agg) {
	base, challenger = make([]Agg, n), make([]Agg, n)
	for i, c := range cells {
		if idx, chal := versusPoint(c.Point); chal {
			challenger[idx].Add(results[i].RunMetrics)
		} else {
			base[idx].Add(results[i].RunMetrics)
		}
	}
	return base, challenger
}

// journalCells writes one Record per cell — config, seed, and the
// final metric snapshot — after the sweep, in cell order, so the
// journal bytes are deterministic for a fixed config at any worker
// count. A nil journal writes nothing.
func journalCells(j *metrics.Journal, cfg any, cells []sweep.Cell, results []runOut, label func(point int) string) {
	if j == nil {
		return
	}
	for i, c := range cells {
		// A write failure sticks on the journal; callers check Err once.
		_ = j.Write(metrics.Record{
			Experiment: c.Figure,
			Label:      label(c.Point),
			Seed:       c.Seed,
			Config:     cfg,
			Metrics:    results[i].snap,
		})
	}
}
