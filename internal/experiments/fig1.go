package experiments

import (
	"fmt"

	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/sweep"
)

// Fig1Config reproduces Figure 1: SSAF versus counter-1 flooding over
// the packet generation interval (§3). Paper scale: 100 nodes in
// 1000×1000 m, free space, 50 random connections.
type Fig1Config struct {
	Nodes       int       // default 100
	Terrain     float64   // square side, default 1000
	Range       float64   // default 250
	Connections int       // default 50
	Intervals   []float64 // x-axis, seconds; default 0.5..10
	Duration    float64   // traffic seconds per run; default 30
	Seeds       []int64   // replications; default {1,2,3}
	Workers     int       `json:"-"` // parallelism; default GOMAXPROCS
	Lambda      sim.Time  // SSAF λ and counter-1 max backoff; default 10 ms
	DataSize    int       // flooded payload bytes; default 64

	// Journal, when non-nil, receives one Record per run — config, seed,
	// and the final metric snapshot — written after the sweep in job
	// order, so the journal bytes are deterministic for a fixed config.
	Journal *metrics.Journal `json:"-"`
}

func (c Fig1Config) withDefaults() Fig1Config {
	if c.Nodes == 0 {
		c.Nodes = 100
	}
	if c.Terrain == 0 {
		c.Terrain = 1000
	}
	if c.Range == 0 {
		c.Range = 250
	}
	if c.Connections == 0 {
		c.Connections = 50
	}
	if len(c.Intervals) == 0 {
		c.Intervals = []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	if c.Duration == 0 {
		c.Duration = 30
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3}
	}
	if c.Lambda == 0 {
		c.Lambda = 10e-3
	}
	if c.DataSize == 0 {
		// Short sensor readings: keeps airtime (0.5 ms at 1 Mbps) well
		// below the backoff scale so prioritization, not transmission
		// serialization, decides relay order — and puts the saturation
		// knee in the paper's interval range.
		c.DataSize = 64
	}
	return c
}

// Fig1Row is one x-axis point of the three Figure 1 panels.
type Fig1Row struct {
	Interval float64
	Counter1 Agg
	SSAF     Agg
	Events   uint64 // kernel events executed by the point's runs, both variants
}

// fig1Spec is one Figure 1 cell: `Connections` random one-way flows of
// packetSize bytes flooded over a connected field.
func fig1Spec(cfg Fig1Config, install func(*node.Network), interval float64, packetSize int, seed int64) scenario.Spec {
	flows, _ := randomFlows(seed, cfg.Nodes, cfg.Connections, interval, packetSize, false)
	return scenario.Spec{
		Net:      field(cfg.Nodes, cfg.Terrain, cfg.Range, seed),
		Install:  install,
		Flows:    flows,
		Duration: sim.Time(cfg.Duration),
	}
}

// RunFig1 sweeps the packet generation interval for both flooding
// variants — counter-1 the baseline, SSAF the challenger — across all
// seeds through the sweep engine.
func RunFig1(cfg Fig1Config) []Fig1Row {
	cfg = cfg.withDefaults()
	cells := sweep.Cells("fig1", len(cfg.Intervals)*2, cfg.Seeds)
	variant := func(point int) (proto string, interval float64) {
		idx, ssaf := versusPoint(point)
		if ssaf {
			return scenario.ProtoSSAF, cfg.Intervals[idx]
		}
		return scenario.ProtoCounter1, cfg.Intervals[idx]
	}
	results := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) runOut {
		proto, interval := variant(c.Point)
		install := scenario.Installer(proto, cfg.Lambda, cfg.Range)
		return finish(assemble(ctx, fig1Spec(cfg, install, interval, cfg.DataSize, c.Seed)), cfg.Journal != nil)
	})
	c1, ssaf := foldVersus(len(cfg.Intervals), cells, results)
	rows := make([]Fig1Row, len(cfg.Intervals))
	for i, iv := range cfg.Intervals {
		rows[i] = Fig1Row{Interval: iv, Counter1: c1[i], SSAF: ssaf[i]}
	}
	for i, c := range cells {
		idx, _ := versusPoint(c.Point)
		rows[idx].Events += results[i].events
	}
	journalCells(cfg.Journal, cfg, cells, results, func(point int) string {
		proto, interval := variant(point)
		return fmt.Sprintf("%s interval=%g", proto, interval)
	})
	return rows
}

// Fig1Table renders the three panels as one table.
func Fig1Table(rows []Fig1Row) *stats.Table {
	t := stats.NewTable(
		"Figure 1 — SSAF vs counter-1 flooding (free-space field, random connections)",
		"interval_s",
		"c1_delay_s", "ssaf_delay_s",
		"c1_hops", "ssaf_hops",
		"c1_delivery", "ssaf_delivery",
	)
	for _, r := range rows {
		t.AddRow(r.Interval,
			r.Counter1.Delay.Mean(), r.SSAF.Delay.Mean(),
			r.Counter1.Hops.Mean(), r.SSAF.Hops.Mean(),
			r.Counter1.Delivery.Mean(), r.SSAF.Delivery.Mean(),
		)
	}
	return t
}
