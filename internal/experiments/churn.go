package experiments

import (
	"fmt"

	"routeless/internal/fault"
	"routeless/internal/metrics"
	"routeless/internal/packet"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/sweep"
)

// ChurnConfig is the fault-plane churn study: fixed bidirectional CBR
// pairs while a composite fault plan — duty-cycle crashes, per-link
// shadowing, and a roaming jammer, all scaled by one intensity knob —
// batters the network, comparing how Routeless Routing, AODV, and
// Gradient repair. It extends Figure 4's crash-only sweep to the full
// fault taxonomy and reads the recovery histograms as outputs.
type ChurnConfig struct {
	Nodes    int      // default 200
	Terrain  float64  // default 1265 (keeps Figure-4 density at 200 nodes)
	Range    float64  // default 250
	Interval float64  // CBR interval per direction, default 1 s
	Duration float64  // traffic seconds, default 30
	Seeds    []int64  // default {1,2,3}
	Workers  int      `json:"-"` // default GOMAXPROCS
	Lambda   sim.Time // Routeless λ, default 10 ms
	DataSize int      // CBR payload bytes; default 64
	Pairs    int      // communicating pairs; default 5

	// Intensities is the x-axis: the crash OffFraction, with the link
	// degradation and jamming rates scaling linearly alongside it.
	// Intensity 0 runs with no fault plan at all (the clean baseline).
	Intensities []float64 // default {0, 0.05, 0.1, 0.2}

	// Journal, when non-nil, receives one Record per run in cell order.
	Journal *metrics.Journal `json:"-"`
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.Nodes == 0 {
		c.Nodes = 200
	}
	if c.Terrain == 0 {
		c.Terrain = 1265
	}
	if c.Range == 0 {
		c.Range = 250
	}
	if c.Interval == 0 {
		c.Interval = 1
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
		c.DataSize = 64
	}
	if c.Pairs == 0 {
		c.Pairs = 5
	}
	if len(c.Intensities) == 0 {
		c.Intensities = []float64{0, 0.05, 0.1, 0.2}
	}
	return c
}

// numChurnProtos is the protocol count inside each intensity point.
const numChurnProtos = 3

// churnProto fixes the protocol order inside each intensity point.
func churnProto(i int) RoutingProto {
	switch i {
	case 0:
		return ProtoRouteless
	case 1:
		return ProtoAODV
	default:
		return ProtoGradient
	}
}

// repairSeries maps a protocol to its repair-latency histogram name.
func repairSeries(proto RoutingProto) string {
	switch proto {
	case ProtoRouteless:
		return "rr.repair_latency_s"
	case ProtoAODV:
		return "aodv.repair_latency_s"
	default:
		return "gradient.repair_latency_s"
	}
}

// churnPlan scales the three network-level fault shapes with one
// intensity knob: crash duty cycles at the intensity itself (Figure 4's
// axis), plus one link shadowed and one jam burst per 0.05/intensity
// seconds. Intensity 0 returns nil — no plan, bitwise identical to a
// run without the fault plane.
func churnPlan(intensity float64, exclude []packet.NodeID) fault.Plan {
	if intensity <= 0 {
		return nil
	}
	crash := fault.Crash(intensity)
	crash.Exclude = exclude
	deg := fault.Degrade(-25)
	deg.Period = sim.Time(0.05 / intensity)
	jam := fault.Jam(24.5)
	jam.Period = sim.Time(0.05 / intensity)
	return fault.Plan{crash, deg, jam}
}

// ChurnRow is one intensity point of the churn study.
type ChurnRow struct {
	Intensity float64

	RR, AODV, Gradient Agg

	// Per-protocol mean repair latency (seconds) and repair counts,
	// aggregated across seeds from the recovery histograms.
	RRRepairS, AODVRepairS, GradientRepairS stats.Welford
	RRRepairs, AODVRepairs, GradientRepairs stats.Welford
}

// RunChurn sweeps fault intensity × protocol across seeds on the
// routing rig, with the composite fault plan in place of Figure 4's
// crash-only one. Every cell's snapshot is captured: the repair-latency
// histograms are the study's output, journaled or not.
func RunChurn(cfg ChurnConfig) []ChurnRow {
	cfg = cfg.withDefaults()
	rig := Fig34Config{
		Nodes: cfg.Nodes, Terrain: cfg.Terrain, Range: cfg.Range,
		Interval: cfg.Interval, DataSize: cfg.DataSize, Duration: cfg.Duration,
	}
	cells := sweep.Cells("churn", len(cfg.Intensities)*numChurnProtos, cfg.Seeds)
	results := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) runOut {
		ii, pi := c.Point/numChurnProtos, c.Point%numChurnProtos
		install := scenario.Installer(string(churnProto(pi)), cfg.Lambda, cfg.Range)
		sp, endpoints := routingSpec(rig, c.Seed, cfg.Pairs, install)
		sp.Plan = churnPlan(cfg.Intensities[ii], endpoints)
		return finish(assemble(ctx, sp), true)
	})
	rows := make([]ChurnRow, len(cfg.Intensities))
	for i, x := range cfg.Intensities {
		rows[i].Intensity = x
	}
	for i, c := range cells {
		ii, pi := c.Point/numChurnProtos, c.Point%numChurnProtos
		row := &rows[ii]
		proto := churnProto(pi)
		rep, _ := results[i].snap.Get(repairSeries(proto))
		switch proto {
		case ProtoRouteless:
			row.RR.Add(results[i].RunMetrics)
			row.RRRepairS.Add(rep.Value)
			row.RRRepairs.Add(float64(rep.Count))
		case ProtoAODV:
			row.AODV.Add(results[i].RunMetrics)
			row.AODVRepairS.Add(rep.Value)
			row.AODVRepairs.Add(float64(rep.Count))
		case ProtoGradient:
			row.Gradient.Add(results[i].RunMetrics)
			row.GradientRepairS.Add(rep.Value)
			row.GradientRepairs.Add(float64(rep.Count))
		}
	}
	journalCells(cfg.Journal, cfg, cells, results, func(point int) string {
		return fmt.Sprintf("%s intensity=%g", churnProto(point%numChurnProtos), cfg.Intensities[point/numChurnProtos])
	})
	return rows
}

// ChurnTable renders the churn study: delivery, repair latency, and
// delay per protocol against fault intensity.
func ChurnTable(rows []ChurnRow) *stats.Table {
	t := stats.NewTable(
		"Churn — RR vs AODV vs Gradient under composite faults (crash + link shadowing + jammer)",
		"intensity",
		"rr_delivery", "aodv_delivery", "grad_delivery",
		"rr_repair_s", "aodv_repair_s", "grad_repair_s",
		"rr_repairs", "aodv_repairs", "grad_repairs",
		"rr_delay_s", "aodv_delay_s", "grad_delay_s",
	)
	for _, r := range rows {
		t.AddRow(r.Intensity,
			r.RR.Delivery.Mean(), r.AODV.Delivery.Mean(), r.Gradient.Delivery.Mean(),
			r.RRRepairS.Mean(), r.AODVRepairS.Mean(), r.GradientRepairS.Mean(),
			r.RRRepairs.Mean(), r.AODVRepairs.Mean(), r.GradientRepairs.Mean(),
			r.RR.Delay.Mean(), r.AODV.Delay.Mean(), r.Gradient.Delay.Mean(),
		)
	}
	return t
}
