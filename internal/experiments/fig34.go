package experiments

import (
	"fmt"

	"routeless/internal/fault"
	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/sweep"
)

// RoutingProto selects the protocol under test in Figures 3 and 4.
type RoutingProto string

// Protocols the routing experiments can run.
const (
	ProtoRouteless RoutingProto = scenario.ProtoRouteless
	ProtoAODV      RoutingProto = scenario.ProtoAODV
	ProtoGradient  RoutingProto = scenario.ProtoGradient
)

// Fig34Config covers both routing figures: Figure 3 sweeps the number
// of communicating pairs with no failures; Figure 4 fixes the pairs and
// sweeps the node-failure percentage. Paper scale: 500 nodes in
// 2000×2000 m, range ≈250 m, bidirectional CBR.
type Fig34Config struct {
	Nodes    int      // default 500
	Terrain  float64  // default 2000
	Range    float64  // default 250
	Interval float64  // CBR interval per direction, default 1 s
	Duration float64  // traffic seconds, default 60
	Seeds    []int64  // default {1,2,3}
	Workers  int      `json:"-"` // default GOMAXPROCS
	Lambda   sim.Time // Routeless λ, default 10 ms
	DataSize int      // CBR payload bytes; default 64

	// Pairs is Figure 3's x-axis; default 1..10.
	Pairs []int
	// FailurePcts is Figure 4's x-axis (fractions); default 0..0.10.
	FailurePcts []float64
	// Fig4Pairs is the fixed pair count for Figure 4; default 10.
	Fig4Pairs int

	// Journal, when non-nil, receives one Record per run — config, seed,
	// and the final metric snapshot — written after each sweep in job
	// order, so the journal bytes are deterministic for a fixed config.
	Journal *metrics.Journal `json:"-"`
}

func (c Fig34Config) withDefaults() Fig34Config {
	if c.Nodes == 0 {
		c.Nodes = 500
	}
	if c.Terrain == 0 {
		c.Terrain = 2000
	}
	if c.Range == 0 {
		c.Range = 250
	}
	if c.Interval == 0 {
		c.Interval = 1
	}
	if c.Duration == 0 {
		c.Duration = 60
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3}
	}
	if c.Lambda == 0 {
		c.Lambda = 10e-3
	}
	if c.DataSize == 0 {
		// Sensor-scale readings, matching the Figure 1 setup; see the
		// DataSize note there.
		c.DataSize = 64
	}
	if len(c.Pairs) == 0 {
		c.Pairs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	if len(c.FailurePcts) == 0 {
		c.FailurePcts = []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10}
	}
	if c.Fig4Pairs == 0 {
		c.Fig4Pairs = 10
	}
	return c
}

// routingSpec is the §4.3 rig shared by Figures 3 and 4, the churn
// study and ablations 2, 4, 5 and 6: a connected field and `pairs`
// bidirectional CBR connections. It also returns the traffic endpoints,
// which the failure studies shield from their fault plans.
func routingSpec(cfg Fig34Config, seed int64, pairs int, install func(*node.Network)) (scenario.Spec, []packet.NodeID) {
	flows, endpoints := randomFlows(seed, cfg.Nodes, pairs, cfg.Interval, cfg.DataSize, true)
	return scenario.Spec{
		Net:      field(cfg.Nodes, cfg.Terrain, cfg.Range, seed),
		Install:  install,
		Flows:    flows,
		Duration: sim.Time(cfg.Duration),
	}, endpoints
}

// dutyCycle is the §4.3 failure model as a fault plan: "node failures
// are artificially introduced to turn off transceivers in all nodes but
// those that generate and receive CBR traffic". sleep selects the §4.2
// voluntary low-power variant. A zero fraction returns no plan, so the
// run is bitwise identical to one without the fault plane.
func dutyCycle(offFraction float64, sleep bool, endpoints []packet.NodeID) fault.Plan {
	if offFraction <= 0 {
		return nil
	}
	return fault.Plan{fault.CrashSpec{OffFraction: offFraction, Sleep: sleep, Exclude: endpoints}}
}

// runRouting runs one routing-rig cell of proto at its document-level
// settings.
func runRouting(ctx *sweep.Context, cfg Fig34Config, proto RoutingProto, pairs int, failurePct float64, seed int64) runOut {
	sp, endpoints := routingSpec(cfg, seed, pairs, scenario.Installer(string(proto), cfg.Lambda, cfg.Range))
	sp.Plan = dutyCycle(failurePct, false, endpoints)
	return finish(assemble(ctx, sp), cfg.Journal != nil)
}

// Fig3Row is one x-axis point of the four Figure 3 panels.
type Fig3Row struct {
	Pairs     int
	AODV      Agg
	Routeless Agg
}

// versusProto names the protocol at a Figure 3/4 point: AODV is the
// baseline, Routeless Routing the challenger.
func versusProto(point int) RoutingProto {
	if _, rr := versusPoint(point); rr {
		return ProtoRouteless
	}
	return ProtoAODV
}

// RunFig3 sweeps the number of communicating pairs with no failures.
func RunFig3(cfg Fig34Config) []Fig3Row {
	cfg = cfg.withDefaults()
	cells := sweep.Cells("fig3", len(cfg.Pairs)*2, cfg.Seeds)
	results := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) runOut {
		return runRouting(ctx, cfg, versusProto(c.Point), cfg.Pairs[c.Point/2], 0, c.Seed)
	})
	aodv, rr := foldVersus(len(cfg.Pairs), cells, results)
	rows := make([]Fig3Row, len(cfg.Pairs))
	for i, p := range cfg.Pairs {
		rows[i] = Fig3Row{Pairs: p, AODV: aodv[i], Routeless: rr[i]}
	}
	journalCells(cfg.Journal, cfg, cells, results, func(point int) string {
		return fmt.Sprintf("%s pairs=%d", versusProto(point), cfg.Pairs[point/2])
	})
	return rows
}

// routingTable renders the four panels Figures 3 and 4 share, one row
// per x-axis value.
func routingTable(title, xcol string, n int, row func(i int) (x any, aodv, rr *Agg)) *stats.Table {
	t := stats.NewTable(title, xcol,
		"aodv_delay_s", "rr_delay_s",
		"aodv_delivery", "rr_delivery",
		"aodv_mac_pkts", "rr_mac_pkts",
		"aodv_hops", "rr_hops",
	)
	for i := 0; i < n; i++ {
		x, aodv, rr := row(i)
		t.AddRow(x,
			aodv.Delay.Mean(), rr.Delay.Mean(),
			aodv.Delivery.Mean(), rr.Delivery.Mean(),
			aodv.MACPackets.Mean(), rr.MACPackets.Mean(),
			aodv.Hops.Mean(), rr.Hops.Mean(),
		)
	}
	return t
}

// Fig3Table renders the four panels as one table.
func Fig3Table(rows []Fig3Row) *stats.Table {
	return routingTable("Figure 3 — Routeless Routing vs AODV, no failures (bidirectional CBR)", "pairs",
		len(rows), func(i int) (any, *Agg, *Agg) { return rows[i].Pairs, &rows[i].AODV, &rows[i].Routeless })
}

// Fig4Row is one x-axis point of the four Figure 4 panels.
type Fig4Row struct {
	FailurePct float64
	AODV       Agg
	Routeless  Agg
}

// RunFig4 sweeps the node-failure percentage at a fixed pair count.
func RunFig4(cfg Fig34Config) []Fig4Row {
	cfg = cfg.withDefaults()
	cells := sweep.Cells("fig4", len(cfg.FailurePcts)*2, cfg.Seeds)
	results := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) runOut {
		return runRouting(ctx, cfg, versusProto(c.Point), cfg.Fig4Pairs, cfg.FailurePcts[c.Point/2], c.Seed)
	})
	aodv, rr := foldVersus(len(cfg.FailurePcts), cells, results)
	rows := make([]Fig4Row, len(cfg.FailurePcts))
	for i, pct := range cfg.FailurePcts {
		rows[i] = Fig4Row{FailurePct: pct, AODV: aodv[i], Routeless: rr[i]}
	}
	journalCells(cfg.Journal, cfg, cells, results, func(point int) string {
		return fmt.Sprintf("%s failure=%g", versusProto(point), cfg.FailurePcts[point/2])
	})
	return rows
}

// Fig4Table renders the four panels as one table.
func Fig4Table(rows []Fig4Row) *stats.Table {
	return routingTable("Figure 4 — Routeless Routing vs AODV under duty-cycle node failures", "failure_pct",
		len(rows), func(i int) (any, *Agg, *Agg) { return rows[i].FailurePct, &rows[i].AODV, &rows[i].Routeless })
}
