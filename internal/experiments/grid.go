package experiments

import (
	"fmt"

	"routeless/internal/metrics"
	"routeless/internal/scenario"
	"routeless/internal/stats"
	"routeless/internal/sweep"
)

// grid is a study shaped the way the paper's figures are: an x-axis
// crossed with one to three protocol variants, replicated over seeds,
// one scenario document per cell, folded per (point, variant).
type grid struct {
	name, title string
	config      any    // journaled with every cell record
	xcol, xname string // the x-axis's table column and journal-label name
	xs          []any  // x-axis values, as the table prints them
	variants    []variant
	seeds       []int64
	cols        []col
	spec        func(x, v int, seed int64) scenario.Scenario
	// linkCacheCap bounds every cell's resident link caches
	// (scenario.BuildOptions); 0 leaves them unbounded.
	linkCacheCap int
	// repair, when set, names variant v's repair-latency histogram;
	// every cell's final snapshot is then taken and folded into
	// Agg.RepairS and Agg.Repairs.
	repair func(v int) string
}

// variant is one protocol variant: its table-column prefix and its
// name in journal labels (the scenario protocol name, where the
// variant is a protocol of its own).
type variant struct{ col, name string }

// col is one per-variant table column.
type col struct {
	name string
	of   func(*Agg) float64
}

// The columns the studies print: per-point means across seeds.
var (
	delayCol    = col{"delay_s", func(a *Agg) float64 { return a.Delay.Mean() }}
	hopsCol     = col{"hops", func(a *Agg) float64 { return a.Hops.Mean() }}
	deliveryCol = col{"delivery", func(a *Agg) float64 { return a.Delivery.Mean() }}
	macCol      = col{"mac_pkts", func(a *Agg) float64 { return a.MACPackets.Mean() }}
	energyCol   = col{"energy_J", func(a *Agg) float64 { return a.EnergyJ.Mean() }}
)

// anys converts an x-axis to the grid's []any.
func anys[T any](s []T) []any {
	out := make([]any, len(s))
	for i, v := range s {
		out[i] = v
	}
	return out
}

// cellOut is one cell's result as it crosses the sweep boundary: the
// paper-unit metrics, the kernel events the run executed, and the
// final registry snapshot when the grid needs it (nil otherwise —
// snapshots are not free).
type cellOut struct {
	RunMetrics
	events uint64
	snap   *metrics.Snapshot
}

// run sweeps every (point, variant, seed) cell on workers sweep
// workers and folds the results in cell order — point-major, variant,
// then seeds ascending — into aggs[x][v] and events[x], so every
// Welford sequence, and every table value, is the same at any worker
// count. A non-nil journal receives one Record per cell, in the same
// order. A grid's documents are fixed by its config, so an invalid
// document, a build failure or a conservation-law violation is a bug
// and panics.
func (g grid) run(workers int, j *metrics.Journal) (aggs [][]Agg, events []uint64) {
	nv, spec := len(g.variants), g.spec
	snap := j != nil || g.repair != nil
	cells := sweep.Cells(g.name, len(g.xs)*nv, g.seeds)
	results := sweep.Run(workers, cells, func(ctx *sweep.Context, _ int, c sweep.Cell) cellOut {
		sc := spec(c.Point/nv, c.Point%nv, c.Seed)
		run, err := scenario.BuildWith(sc, scenario.BuildOptions{Runtime: ctx.Runtime(), LinkCacheCap: g.linkCacheCap})
		if err != nil {
			panic(err)
		}
		rm, err := run.Finish()
		if err != nil {
			panic(err)
		}
		nw := run.Network()
		out := cellOut{RunMetrics: rm, events: nw.Processed()}
		if snap {
			out.snap = nw.Metrics.Snapshot()
		}
		return out
	})
	aggs = make([][]Agg, len(g.xs))
	for x := range aggs {
		aggs[x] = make([]Agg, nv)
	}
	events = make([]uint64, len(g.xs))
	for i, c := range cells {
		x, v, out := c.Point/nv, c.Point%nv, &results[i]
		a := &aggs[x][v]
		a.Add(out.RunMetrics)
		if g.repair != nil {
			rep, _ := out.snap.Get(g.repair(v))
			a.RepairS.Add(rep.Value)
			a.Repairs.Add(float64(rep.Count))
		}
		events[x] += out.events
		if j != nil {
			// A write failure sticks on the journal; callers check Err once.
			_ = j.Write(metrics.Record{
				Experiment: c.Figure,
				Label:      fmt.Sprintf("%s %s=%v", g.variants[v].name, g.xname, g.xs[x]),
				Seed:       c.Seed,
				Config:     g.config,
				Metrics:    out.snap,
			})
		}
	}
	return aggs, events
}

// table renders one row per x-axis point: the x value, then each
// column for every variant in turn, headed <variant>_<column> — or
// just <column> when the grid has one variant.
func (g grid) table(aggs [][]Agg) *stats.Table {
	headers := []string{g.xcol}
	for _, c := range g.cols {
		for _, v := range g.variants {
			if len(g.variants) == 1 {
				headers = append(headers, c.name)
			} else {
				headers = append(headers, v.col+"_"+c.name)
			}
		}
	}
	t := stats.NewTable(g.title, headers...)
	for x, point := range aggs {
		row := []any{g.xs[x]}
		for _, c := range g.cols {
			for v := range point {
				row = append(row, c.of(&point[v]))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// study wraps the grid as a Study named after its cells.
func (g grid) study() Study {
	return Study{Name: g.name, Run: func(workers int, j *metrics.Journal) Result {
		aggs, events := g.run(workers, j)
		var total uint64
		for _, e := range events {
			total += e
		}
		return Result{Table: g.table(aggs), Events: total}
	}}
}
