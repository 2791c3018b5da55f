package experiments

import (
	"fmt"
	"math"

	"routeless/internal/flood"
	"routeless/internal/geo"
	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/rng"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/sweep"
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
	Workers      int      `json:"-"` // sweep parallelism; default GOMAXPROCS
	LinkCacheCap int      `json:"-"` // per-run link-cache residency bound; default 4096
	Lambda       sim.Time // SSAF λ; default 10 ms
	DataSize     int      // flooded payload bytes; default 64

	// Journal, when non-nil, receives one Record per run plus nothing
	// else; bytes are deterministic for a fixed config at any worker
	// or link-cache setting.
	Journal *metrics.Journal `json:"-"`
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
	return megaLastStart(cfg.Flows) + 3 + 2.5*hops*(float64(cfg.Lambda)+0.002)
}

// megaLastStart is when the final staggered flow fires its one packet.
func megaLastStart(flows int) float64 { return 0.5 + float64(flows-1) }

// MegaRow is one x-axis point: the aggregate paper-unit metrics plus
// the derived per-hop election latency (one sample per seed).
type MegaRow struct {
	N        int
	SSAF     Agg
	Election stats.Welford // Delay.Mean()/Hops.Mean() per run, seconds
	Events   uint64        // kernel events executed by the point's runs
}

// RunMega sweeps the node counts across seeds through the sweep engine.
// Its draws come from the same generator as every other study's and
// are pinned by the fig_mega_tiny journal golden.
func RunMega(cfg MegaConfig) []MegaRow {
	cfg = cfg.withDefaults()
	cells := sweep.Cells("fig_mega", len(cfg.Ns), cfg.Seeds)
	results := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) runOut {
		return finish(assemble(ctx, megaSpec(cfg, cfg.Ns[c.Point], c.Seed)), cfg.Journal != nil)
	})
	rows := make([]MegaRow, len(cfg.Ns))
	for i, n := range cfg.Ns {
		rows[i].N = n
	}
	for i, c := range cells {
		row := &rows[c.Point]
		m := results[i].RunMetrics
		row.SSAF.Add(m)
		row.Events += results[i].events
		if m.Hops > 0 {
			row.Election.Add(m.Delay / m.Hops)
		}
	}
	journalCells(cfg.Journal, cfg, cells, results, func(point int) string {
		return fmt.Sprintf("ssaf n=%d", cfg.Ns[point])
	})
	return rows
}

// megaSpec is one arena cell: n nodes at the configured density, one
// staggered SSAF flood per flow.
func megaSpec(cfg MegaConfig, n int, seed int64) scenario.Spec {
	side := megaSide(n, cfg.Density)
	dur := megaDuration(cfg, side)
	fcfg := scenario.SSAFConfig(cfg.Lambda, cfg.Range)
	// The default TTL of 32 suits paper-scale arenas; a mega arena's
	// diagonal is hundreds of hops (SSAF's effective hop progress is
	// roughly half the calibrated range), so the brake scales with the
	// geometry instead of silently amputating the flood mid-arena.
	fcfg.TTL = int(4*side*math.Sqrt2/cfg.Range) + 16
	return scenario.Spec{
		Net: node.Config{
			N:     n,
			Rect:  geo.NewRect(side, side),
			Range: cfg.Range,
			Seed:  seed,
			// No EnsureConnected: the connectivity check is O(N·deg) per
			// placement draw, and at Figure-1 density a giant component
			// spans the arena anyway — stragglers just dent the delivery
			// ratio deterministically.
			LinkCacheCap: cfg.LinkCacheCap,
		},
		Install: func(nw *node.Network) {
			// One contiguous protocol arena instead of N heap objects.
			floodArena := make([]flood.Flooding, n)
			nw.Install(func(nd *node.Node) node.Protocol {
				f := &floodArena[nd.ID]
				flood.Init(f, &fcfg)
				return f
			})
		},
		Flows: func(*node.Network) []scenario.CBRFlow {
			pairs := traffic.RandomPairs(rng.New(seed, rng.StreamTraffic), n, cfg.Flows)
			flows := make([]scenario.CBRFlow, len(pairs))
			for i, p := range pairs {
				// One packet per flow: the interval outlasts the whole run,
				// and the 1 s stagger keeps floods from colliding at birth.
				flows[i] = scenario.CBRFlow{
					Src: p.Src, Dst: p.Dst, Size: cfg.DataSize,
					Interval: sim.Time(dur) + 3*scenario.DrainTime,
					StartAt:  sim.Time(0.5 + float64(i)),
				}
			}
			return flows
		},
		Duration: sim.Time(dur),
	}
}

// MegaTable renders the study: delivery and election latency against N.
func MegaTable(rows []MegaRow) *stats.Table {
	t := stats.NewTable(
		"Figure M — million-node arena: SSAF flooding at Figure-1 density (100 nodes/km²)",
		"nodes", "delivery", "election_latency_s", "delay_s", "hops", "mac_packets",
	)
	for _, r := range rows {
		t.AddRow(r.N,
			r.SSAF.Delivery.Mean(), r.Election.Mean(),
			r.SSAF.Delay.Mean(), r.SSAF.Hops.Mean(), r.SSAF.MACPackets.Mean(),
		)
	}
	return t
}
