package experiments

import (
	"math"

	"routeless/internal/rng"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/traffic"
)

// MegaConfig is the million-node arena study: SSAF flooding on arenas
// grown at fixed Figure-1 density (100 nodes/km²), the x-axis the node
// count on a log scale. It is the scale proof for the O(active) data
// plane — contiguous per-node arenas, bounded link caches, 8-byte RNG
// streams — and reports the two quantities the paper's mechanisms
// promise to keep flat as N grows: delivery ratio and the per-hop
// local election latency (mean end-to-end delay divided by mean hop
// count, i.e. how long each hop's SSAF election took).
type MegaConfig struct {
	Ns      []int   // x-axis node counts; default {1e3, 1e4, 1e5}
	Density float64 // nodes per km²; default 100 (Figure 1's density)
	Range   float64 // calibrated transmission range; default 250
	Flows   int     // source→destination pairs, ONE packet each; default 4
	// Duration is the traffic+crossing window in seconds; 0 derives it
	// per arena from the diagonal hop count so the last flood can cross
	// before the drain starts.
	Duration     float64
	Seeds        []int64  // replications; default {1}
	LinkCacheCap int      `json:"-"` // per-run link-cache residency bound; default 4096
	Lambda       sim.Time // SSAF λ; default 10 ms
	DataSize     int      // flooded payload bytes; default 64
}

func (c MegaConfig) withDefaults() MegaConfig {
	if len(c.Ns) == 0 {
		c.Ns = []int{1_000, 10_000, 100_000}
	}
	if c.Density == 0 {
		c.Density = 100
	}
	if c.Range == 0 {
		c.Range = 250
	}
	if c.Flows == 0 {
		c.Flows = 4
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1}
	}
	if c.LinkCacheCap == 0 {
		c.LinkCacheCap = 4096
	}
	if c.Lambda == 0 {
		c.Lambda = 10e-3
	}
	if c.DataSize == 0 {
		c.DataSize = 64
	}
	return c
}

// megaSide returns the square arena side in meters for n nodes at the
// configured density (nodes per km²).
func megaSide(n int, density float64) float64 {
	return math.Sqrt(float64(n) / density * 1e6)
}

// megaDuration picks the traffic window: every flow has started, and
// the last flood has had 2.5× the nominal diagonal crossing time (hops
// at the calibrated range, λ plus ~2 ms of airtime/backoff per hop) to
// reach the far corner.
func megaDuration(cfg MegaConfig, side float64) float64 {
	if cfg.Duration > 0 {
		return cfg.Duration
	}
	hops := side * math.Sqrt2 / cfg.Range
	lastStart := 0.5 + float64(cfg.Flows-1) // the final staggered flow fires its one packet
	return lastStart + 3 + 2.5*hops*(float64(cfg.Lambda)+0.002)
}

// megaGrid sweeps the node counts across seeds: one SSAF variant, and
// the per-hop election latency beside the paper-unit metrics.
func megaGrid(cfg MegaConfig) grid {
	cfg = cfg.withDefaults()
	return grid{
		name:     "fig_mega",
		title:    "Figure M — million-node arena: SSAF flooding at Figure-1 density (100 nodes/km²)",
		config:   cfg,
		xcol:     "nodes",
		xname:    "n",
		xs:       anys(cfg.Ns),
		variants: []variant{{"ssaf", scenario.ProtoSSAF}},
		seeds:    cfg.Seeds,
		cols: []col{
			deliveryCol,
			{"election_latency_s", func(a *Agg) float64 { return a.Election.Mean() }},
			delayCol,
			hopsCol,
			{"mac_packets", func(a *Agg) float64 { return a.MACPackets.Mean() }},
		},
		spec:         func(x, _ int, seed int64) scenario.Scenario { return megaSpec(cfg, cfg.Ns[x], seed) },
		linkCacheCap: cfg.LinkCacheCap,
	}
}

// megaSpec is one arena cell: n nodes at the configured density, one
// staggered SSAF flood per flow.
func megaSpec(cfg MegaConfig, n int, seed int64) scenario.Scenario {
	side := megaSide(n, cfg.Density)
	dur := megaDuration(cfg, side)
	pairs := traffic.RandomPairs(rng.New(seed, rng.StreamTraffic), n, cfg.Flows)
	flows := make([]scenario.Flow, len(pairs))
	for i, p := range pairs {
		// One packet per flow: the interval outlasts the whole run, and
		// the 1 s stagger keeps floods from colliding at birth.
		flows[i] = scenario.Flow{Src: int(p.Src), Dst: int(p.Dst), Start: 0.5 + float64(i)}
	}
	return scenario.Scenario{
		Seed: seed, N: n, Width: side, Height: side, Range: cfg.Range,
		// Not Connected: the connectivity check is O(N·deg) per
		// placement draw, and at Figure-1 density a giant component
		// spans the arena anyway — stragglers just dent the delivery
		// ratio deterministically.
		Placement: scenario.PlaceUniform,
		Protocol:  scenario.ProtoSSAF, Lambda: float64(cfg.Lambda),
		// The default TTL of 32 suits paper-scale arenas; a mega
		// arena's diagonal is hundreds of hops (SSAF's effective hop
		// progress is roughly half the calibrated range), so the brake
		// scales with the geometry instead of silently amputating the
		// flood mid-arena.
		Flood:    &scenario.Flood{TTL: int(4*side*math.Sqrt2/cfg.Range) + 16},
		Flows:    flows,
		Interval: float64(sim.Time(dur) + 3*scenario.DrainTime),
		DataSize: cfg.DataSize,
		Duration: dur,
	}
}
