package experiments

import (
	"routeless/internal/scenario"
	"routeless/internal/sim"
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
	Lambda      sim.Time  // SSAF λ and counter-1 max backoff; default 10 ms
	DataSize    int       // flooded payload bytes; default 64
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

// fig1Spec is one Figure 1 cell: `Connections` random one-way flows of
// packetSize bytes flooded by proto over a connected field.
func fig1Spec(cfg Fig1Config, proto string, interval float64, packetSize int, seed int64) scenario.Scenario {
	sc := field(cfg.Nodes, cfg.Terrain, cfg.Range, seed, proto, cfg.Lambda)
	sc.Flows, _ = randomFlows(seed, cfg.Nodes, cfg.Connections, false)
	sc.Interval, sc.DataSize, sc.Duration = interval, packetSize, cfg.Duration
	return sc
}

// fig1Grid sweeps the packet generation interval for both flooding
// variants: counter-1 the baseline, SSAF the challenger.
func fig1Grid(cfg Fig1Config) grid {
	cfg = cfg.withDefaults()
	variants := []variant{{"c1", scenario.ProtoCounter1}, {"ssaf", scenario.ProtoSSAF}}
	return grid{
		name:     "fig1",
		title:    "Figure 1 — SSAF vs counter-1 flooding (free-space field, random connections)",
		config:   cfg,
		xcol:     "interval_s",
		xname:    "interval",
		xs:       anys(cfg.Intervals),
		variants: variants,
		seeds:    cfg.Seeds,
		cols:     []col{delayCol, hopsCol, deliveryCol},
		spec: func(x, v int, seed int64) scenario.Scenario {
			return fig1Spec(cfg, variants[v].name, cfg.Intervals[x], cfg.DataSize, seed)
		},
	}
}
