package experiments

import (
	"routeless/internal/fault"
	"routeless/internal/scenario"
	"routeless/internal/sim"
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
	Lambda   sim.Time // Routeless λ, default 10 ms
	DataSize int      // CBR payload bytes; default 64
	Pairs    int      // communicating pairs; default 5

	// Intensities is the x-axis: the crash OffFraction, with the link
	// degradation and jamming rates scaling linearly alongside it.
	// Intensity 0 runs with no faults at all (the clean baseline).
	Intensities []float64 // default {0, 0.05, 0.1, 0.2}
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

// churnPlan scales the three network-level fault shapes with one
// intensity knob: crash duty cycles at the intensity itself (Figure 4's
// axis), plus one link shadowed and one jam burst per 0.05/intensity
// seconds. Intensity 0 returns nil — no faults, bitwise identical to a
// run without the fault plane.
func churnPlan(intensity float64, exclude []int) []fault.Spec {
	if intensity <= 0 {
		return nil
	}
	return []fault.Spec{
		{Kind: fault.KindCrash, OffFraction: intensity, Exclude: exclude},
		{Kind: fault.KindDegrade, OffsetDB: -25, Period: 0.05 / intensity},
		{Kind: fault.KindJam, TxPowerDBm: 24.5, Period: 0.05 / intensity},
	}
}

// churnGrid sweeps fault intensity × protocol across seeds on the
// routing rig, with the composite fault plan in place of Figure 4's
// crash-only one. The repair-latency histograms are the study's
// output, so every cell's snapshot is taken, journaled or not.
func churnGrid(cfg ChurnConfig) grid {
	cfg = cfg.withDefaults()
	rig := Fig34Config{
		Nodes: cfg.Nodes, Terrain: cfg.Terrain, Range: cfg.Range,
		Interval: cfg.Interval, DataSize: cfg.DataSize, Duration: cfg.Duration,
		Lambda: cfg.Lambda,
	}
	variants := []variant{{"rr", scenario.ProtoRouteless}, {"aodv", scenario.ProtoAODV}, {"grad", scenario.ProtoGradient}}
	repairSeries := []string{"rr.repair_latency_s", "aodv.repair_latency_s", "gradient.repair_latency_s"}
	return grid{
		name:     "churn",
		title:    "Churn — RR vs AODV vs Gradient under composite faults (crash + link shadowing + jammer)",
		config:   cfg,
		xcol:     "intensity",
		xname:    "intensity",
		xs:       anys(cfg.Intensities),
		variants: variants,
		seeds:    cfg.Seeds,
		cols: []col{
			deliveryCol,
			{"repair_s", func(a *Agg) float64 { return a.RepairS.Mean() }},
			{"repairs", func(a *Agg) float64 { return a.Repairs.Mean() }},
			delayCol,
		},
		spec: func(x, v int, seed int64) scenario.Scenario {
			sc, endpoints := routingSpec(rig, seed, cfg.Pairs, variants[v].name)
			sc.Faults = churnPlan(cfg.Intensities[x], endpoints)
			return sc
		},
		repair: func(v int) string { return repairSeries[v] },
	}
}
