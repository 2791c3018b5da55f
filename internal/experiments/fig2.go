package experiments

import (
	"fmt"
	"math"
	"strings"

	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/routing"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/sweep"
	"routeless/internal/trace"
)

// Fig2Config reproduces Figure 2: automatic congestion avoidance. Two
// scenarios over the same topology: (a) a single A→B flow; (b) the same
// flow plus heavy C→D cross-traffic through the middle. The figure is
// the set of nodes that actually relayed A's data packets.
type Fig2Config struct {
	Nodes         int      // default 300
	Terrain       float64  // default 1500
	Range         float64  // default 250
	Seed          int64    // topology + protocol seed
	Duration      float64  // traffic seconds, default 40
	Interval      float64  // A→B CBR interval, default 1 s
	CrossInterval float64  // C→D CBR interval, default 0.08 s (saturating)
	CrossSize     int      // C→D payload bytes, default 512 (long airtime)
	Lambda        sim.Time // Routeless λ, default 10 ms
	Workers       int      `json:"-"` // parallelism across the two scenarios; default GOMAXPROCS
}

func (c Fig2Config) withDefaults() Fig2Config {
	if c.Nodes == 0 {
		c.Nodes = 300
	}
	if c.Terrain == 0 {
		c.Terrain = 1500
	}
	if c.Range == 0 {
		c.Range = 250
	}
	if c.Duration == 0 {
		c.Duration = 40
	}
	if c.Interval == 0 {
		c.Interval = 1
	}
	if c.CrossInterval == 0 {
		// Loads the middle corridor heavily: ~25 packets/s of 512-byte
		// frames over ~6 hops builds the MAC queues that §4.2's
		// avoidance argument depends on, without starving the medium
		// completely.
		c.CrossInterval = 0.08
	}
	if c.CrossSize == 0 {
		c.CrossSize = 512
	}
	if c.Lambda == 0 {
		c.Lambda = 10e-3
	}
	return c
}

// Fig2Result holds both scenarios' relay traces over the shared
// topology.
type Fig2Result struct {
	Config     Fig2Config
	Positions  []geo.Point
	A, B, C, D packet.NodeID
	Alone      *trace.PathCollector // scenario (a)
	WithCross  *trace.PathCollector // scenario (b)

	// CenterShareAlone/WithCross: fraction of A's data relays that
	// happened within Terrain/4 of the terrain center — the congested
	// region. Avoidance means the share drops in scenario (b).
	CenterShareAlone     float64
	CenterShareWithCross float64
	// MeanCenterDistAlone/WithCross: mean distance of A's relays from
	// the center (meters); avoidance means it grows.
	MeanCenterDistAlone     float64
	MeanCenterDistWithCross float64
	// Delivered counts A→B packets that arrived in each scenario.
	DeliveredAlone     uint64
	DeliveredWithCross uint64
}

// RunFig2 runs both scenarios — two sweep cells over the same seed, so
// they execute concurrently when workers allow.
func RunFig2(cfg Fig2Config) Fig2Result {
	cfg = cfg.withDefaults()
	cells := sweep.Cells("fig2", 2, []int64{cfg.Seed})
	outs := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) fig2Out {
		return runFig2Scenario(ctx, cfg, c.Point == 1)
	})
	alone, cross := outs[0], outs[1]
	if alone.a != cross.a || alone.b != cross.b {
		panic("experiments: fig2 scenarios diverged on endpoints")
	}
	for i := range alone.positions {
		if alone.positions[i] != cross.positions[i] {
			panic("experiments: fig2 scenarios diverged on topology")
		}
	}
	res := Fig2Result{
		Config: cfg, Positions: cross.positions,
		A: alone.a, B: alone.b, C: cross.c, D: cross.d,
		Alone: alone.paths, WithCross: cross.paths,
		DeliveredAlone: alone.delivered, DeliveredWithCross: cross.delivered,
	}
	center := geo.Point{X: cfg.Terrain / 2, Y: cfg.Terrain / 2}
	res.CenterShareAlone, res.MeanCenterDistAlone = centerUsage(alone.paths, alone.a, cross.positions, center, cfg.Terrain/4)
	res.CenterShareWithCross, res.MeanCenterDistWithCross = centerUsage(cross.paths, alone.a, cross.positions, center, cfg.Terrain/4)
	return res
}

// centerUsage computes what share of origin's data relays happened
// inside the central disk and their mean distance from the center.
func centerUsage(c *trace.PathCollector, origin packet.NodeID, pos []geo.Point, center geo.Point, radius float64) (share, meanDist float64) {
	used := c.NodesUsed(origin, packet.KindData)
	var total, inside int
	var distSum float64
	for id, n := range used {
		if id == origin {
			continue // the source itself is pinned in place
		}
		total += n
		d := pos[id].Dist(center)
		distSum += d * float64(n)
		if d <= radius {
			inside += n
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(inside) / float64(total), distSum / float64(total)
}

// fig2Out is one scenario's outcome as it crosses the sweep boundary.
type fig2Out struct {
	paths      *trace.PathCollector
	positions  []geo.Point
	a, b, c, d packet.NodeID
	delivered  uint64
}

func runFig2Scenario(ctx *sweep.Context, cfg Fig2Config, withCross bool) fig2Out {
	out := fig2Out{paths: trace.NewPathCollector()}
	// A generous path budget lets packets swing wide around the
	// congested middle — the behavior this figure demonstrates.
	rcfg := routing.RoutelessConfig{Lambda: cfg.Lambda, PathMargin: 5}
	run := assemble(ctx, scenario.Spec{
		Net: field(cfg.Nodes, cfg.Terrain, cfg.Range, cfg.Seed),
		Install: func(nw *node.Network) {
			nw.Install(func(n *node.Node) node.Protocol {
				r := routing.NewRouteless(rcfg)
				id := n.ID
				r.OnRelay = func(pkt *packet.Packet) { out.paths.Record(id, pkt, n.Kernel.Now()) }
				return r
			})
		},
		// The endpoints are the nodes nearest four fixed points, so the
		// flows depend on the built placement.
		Flows: func(nw *node.Network) []scenario.CBRFlow {
			t := cfg.Terrain
			out.a = nearestNode(nw, geo.Point{X: 0.08 * t, Y: 0.5 * t})
			out.b = nearestNode(nw, geo.Point{X: 0.92 * t, Y: 0.5 * t})
			out.c = nearestNode(nw, geo.Point{X: 0.5 * t, Y: 0.08 * t})
			out.d = nearestNode(nw, geo.Point{X: 0.5 * t, Y: 0.92 * t})
			iv, cross := sim.Time(cfg.Interval), sim.Time(cfg.CrossInterval)
			flows := []scenario.CBRFlow{{Src: out.a, Dst: out.b, Interval: iv, Size: packet.SizeData, StartAt: iv}}
			if withCross {
				// Bidirectional heavy cross traffic saturates the middle.
				flows = append(flows,
					scenario.CBRFlow{Src: out.c, Dst: out.d, Interval: cross, Size: cfg.CrossSize, StartAt: cross / 2},
					scenario.CBRFlow{Src: out.d, Dst: out.c, Interval: cross, Size: cfg.CrossSize, StartAt: cross / 3})
			}
			return flows
		},
		Duration: sim.Time(cfg.Duration),
	})

	nw := run.Network()
	out.positions = make([]geo.Point, len(nw.Nodes))
	for i, n := range nw.Nodes {
		out.positions[i] = n.Pos
	}
	// Count A's arrivals at B on top of the run's own delivery metering.
	b := nw.Nodes[out.b]
	metered := b.OnAppReceive
	b.OnAppReceive = func(p *packet.Packet) {
		metered(p)
		if p.Origin == out.a {
			out.delivered++
		}
	}
	finish(run, false)
	return out
}

func nearestNode(nw *node.Network, p geo.Point) packet.NodeID {
	best, bestD := packet.None, math.MaxFloat64
	for _, n := range nw.Nodes {
		if d := n.Pos.Dist(p); d < bestD {
			best, bestD = n.ID, d
		}
	}
	return best
}

// Fig2Render draws both scenarios as ASCII maps: '.' nodes, 'o' nodes
// relaying A→B data, 'x' nodes relaying C→D data, letters for
// endpoints.
func Fig2Render(res Fig2Result, width int) string {
	rect := geo.NewRect(res.Config.Terrain, res.Config.Terrain)
	var b strings.Builder
	draw := func(title string, c *trace.PathCollector, withCross bool) {
		cv := trace.NewCanvas(rect, width)
		cv.PlotAll(res.Positions, '.')
		if withCross {
			for id := range c.NodesUsed(res.C, packet.KindData) {
				cv.Plot(res.Positions[id], 'x')
			}
			for id := range c.NodesUsed(res.D, packet.KindData) {
				cv.Plot(res.Positions[id], 'x')
			}
		}
		for id := range c.NodesUsed(res.A, packet.KindData) {
			cv.Plot(res.Positions[id], 'o')
		}
		cv.Plot(res.Positions[res.A], 'A')
		cv.Plot(res.Positions[res.B], 'B')
		if withCross {
			cv.Plot(res.Positions[res.C], 'C')
			cv.Plot(res.Positions[res.D], 'D')
		}
		b.WriteString(title + "\n")
		b.WriteString(cv.String())
	}
	draw("(a) single flow A->B", res.Alone, false)
	b.WriteByte('\n')
	draw("(b) A->B with heavy C<->D cross-traffic", res.WithCross, true)
	fmt.Fprintf(&b, "\nA->B relays within center disk: %.0f%% alone vs %.0f%% with cross-traffic\n",
		100*res.CenterShareAlone, 100*res.CenterShareWithCross)
	fmt.Fprintf(&b, "mean relay distance from center: %.0f m alone vs %.0f m with cross-traffic\n",
		res.MeanCenterDistAlone, res.MeanCenterDistWithCross)
	return b.String()
}

// Fig2Table summarizes the avoidance metrics.
func Fig2Table(res Fig2Result) *stats.Table {
	t := stats.NewTable(
		"Figure 2 — automatic congestion avoidance (Routeless Routing)",
		"scenario", "center_share", "mean_center_dist_m", "ab_delivered",
	)
	t.AddRow("A->B alone", res.CenterShareAlone, res.MeanCenterDistAlone, res.DeliveredAlone)
	t.AddRow("A->B + C<->D", res.CenterShareWithCross, res.MeanCenterDistWithCross, res.DeliveredWithCross)
	return t
}

// Fig2SVG renders scenario (b) — the congested run — as a standalone
// SVG document: gray nodes, blue A→B relays, orange C↔D relays,
// labeled endpoints.
func Fig2SVG(res Fig2Result, width float64) string {
	rect := geo.NewRect(res.Config.Terrain, res.Config.Terrain)
	return trace.RenderSVG(rect, res.Positions, res.WithCross,
		[]trace.FlowSpec{
			{Origin: res.C, Kind: packet.KindData, Color: "#e69f00"},
			{Origin: res.D, Kind: packet.KindData, Color: "#e69f00"},
			{Origin: res.A, Kind: packet.KindData, Color: "#0072b2"},
		},
		map[packet.NodeID]string{res.A: "A", res.B: "B", res.C: "C", res.D: "D"},
		width)
}
