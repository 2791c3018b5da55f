package experiments

import (
	"routeless/internal/fault"
	"routeless/internal/scenario"
	"routeless/internal/sim"
)

// Fig34Config covers both routing figures and the ablations on their
// rig: Figure 3 sweeps the number of communicating pairs with no
// failures; Figure 4 fixes the pairs and sweeps the node-failure
// percentage; ABL2 sweeps λ and ABL5 the sleep fraction at AblPairs
// pairs. Paper scale: 500 nodes in 2000×2000 m, range ≈250 m,
// bidirectional CBR.
type Fig34Config struct {
	Nodes    int      // default 500
	Terrain  float64  // default 2000
	Range    float64  // default 250
	Interval float64  // CBR interval per direction, default 1 s
	Duration float64  // traffic seconds, default 60
	Seeds    []int64  // default {1,2,3}
	Lambda   sim.Time // Routeless λ, default 10 ms
	DataSize int      // CBR payload bytes; default 64

	// Pairs is Figure 3's x-axis; default 1..10.
	Pairs []int
	// FailurePcts is Figure 4's x-axis (fractions); default 0..0.10.
	FailurePcts []float64
	// Fig4Pairs is the fixed pair count for Figure 4; default 10.
	Fig4Pairs int

	// Lambdas is ABL2's x-axis (Routeless λ); default 1..100 ms.
	Lambdas []sim.Time
	// SleepFractions is ABL5's x-axis; default {0, 0.1, 0.2, 0.3, 0.5}.
	SleepFractions []float64
	// AblPairs is the fixed pair count for ABL2 and ABL5; default 5.
	AblPairs int
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
	if len(c.Lambdas) == 0 {
		c.Lambdas = []sim.Time{1e-3, 2e-3, 5e-3, 10e-3, 20e-3, 50e-3, 100e-3}
	}
	if len(c.SleepFractions) == 0 {
		c.SleepFractions = []float64{0, 0.1, 0.2, 0.3, 0.5}
	}
	if c.AblPairs == 0 {
		c.AblPairs = 5
	}
	return c
}

// routingSpec is the §4.3 rig shared by Figures 3 and 4, the churn
// study and ablations 2, 4, 5 and 6: proto over a connected field with
// `pairs` bidirectional CBR connections. It also returns the traffic
// endpoints, which the failure studies shield from their crash faults.
func routingSpec(cfg Fig34Config, seed int64, pairs int, proto string) (scenario.Scenario, []int) {
	sc := field(cfg.Nodes, cfg.Terrain, cfg.Range, seed, proto, cfg.Lambda)
	sc.Interval, sc.DataSize, sc.Duration = cfg.Interval, cfg.DataSize, cfg.Duration
	var endpoints []int
	sc.Flows, endpoints = randomFlows(seed, cfg.Nodes, pairs, true)
	return sc, endpoints
}

// dutyCycle is the §4.3 failure model as a faults list: "node failures
// are artificially introduced to turn off transceivers in all nodes but
// those that generate and receive CBR traffic". sleep selects the §4.2
// voluntary low-power variant. A zero fraction returns no faults, so the
// run is bitwise identical to one without the fault plane.
func dutyCycle(offFraction float64, sleep bool, endpoints []int) []fault.Spec {
	if offFraction <= 0 {
		return nil
	}
	return []fault.Spec{{Kind: fault.KindCrash, OffFraction: offFraction, Sleep: sleep, Exclude: endpoints}}
}

// fig34Variants are Figures 3 and 4's protocols: AODV the baseline,
// Routeless Routing the challenger.
var fig34Variants = []variant{{"aodv", scenario.ProtoAODV}, {"rr", scenario.ProtoRouteless}}

// fig34Cols are the four panels Figures 3 and 4 share.
var fig34Cols = []col{delayCol, deliveryCol, macCol, hopsCol}

// routingCell is one routing-rig cell of the named protocol at the
// config's λ, with a duty-cycle crash fault when failurePct > 0.
func routingCell(cfg Fig34Config, proto string, pairs int, failurePct float64, seed int64) scenario.Scenario {
	sc, endpoints := routingSpec(cfg, seed, pairs, proto)
	sc.Faults = dutyCycle(failurePct, false, endpoints)
	return sc
}

// fig3Grid sweeps the number of communicating pairs with no failures.
func fig3Grid(cfg Fig34Config) grid {
	cfg = cfg.withDefaults()
	return grid{
		name:     "fig3",
		title:    "Figure 3 — Routeless Routing vs AODV, no failures (bidirectional CBR)",
		config:   cfg,
		xcol:     "pairs",
		xname:    "pairs",
		xs:       anys(cfg.Pairs),
		variants: fig34Variants,
		seeds:    cfg.Seeds,
		cols:     fig34Cols,
		spec: func(x, v int, seed int64) scenario.Scenario {
			return routingCell(cfg, fig34Variants[v].name, cfg.Pairs[x], 0, seed)
		},
	}
}

// fig4Grid sweeps the node-failure percentage at a fixed pair count.
func fig4Grid(cfg Fig34Config) grid {
	cfg = cfg.withDefaults()
	return grid{
		name:     "fig4",
		title:    "Figure 4 — Routeless Routing vs AODV under duty-cycle node failures",
		config:   cfg,
		xcol:     "failure_pct",
		xname:    "failure",
		xs:       anys(cfg.FailurePcts),
		variants: fig34Variants,
		seeds:    cfg.Seeds,
		cols:     fig34Cols,
		spec: func(x, v int, seed int64) scenario.Scenario {
			return routingCell(cfg, fig34Variants[v].name, cfg.Fig4Pairs, cfg.FailurePcts[x], seed)
		},
	}
}
