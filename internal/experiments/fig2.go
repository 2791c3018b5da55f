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
	// Events is the kernel events both scenarios executed.
	Events uint64
}

// RunFig2 runs both scenarios — two sweep cells over the same seed, so
// they execute concurrently when workers allow (0 = GOMAXPROCS).
func RunFig2(cfg Fig2Config, workers int) Fig2Result {
	cfg = cfg.withDefaults()
	ends := fig2Endpoints(cfg)
	cells := sweep.Cells("fig2", 2, []int64{cfg.Seed})
	outs := sweep.Run(workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) fig2Out {
		return runFig2Scenario(ctx, cfg, ends, c.Point == 1)
	})
	alone, cross := outs[0], outs[1]
	for i := range alone.positions {
		if alone.positions[i] != cross.positions[i] {
			panic("experiments: fig2 scenarios diverged on topology")
		}
	}
	res := Fig2Result{
		Config: cfg, Positions: cross.positions,
		A: ends[0], B: ends[1], C: ends[2], D: ends[3],
		Alone: alone.paths, WithCross: cross.paths,
		DeliveredAlone: alone.delivered, DeliveredWithCross: cross.delivered,
		Events: alone.events + cross.events,
	}
	center := geo.Point{X: cfg.Terrain / 2, Y: cfg.Terrain / 2}
	res.CenterShareAlone, res.MeanCenterDistAlone = centerUsage(alone.paths, res.A, cross.positions, center, cfg.Terrain/4)
	res.CenterShareWithCross, res.MeanCenterDistWithCross = centerUsage(cross.paths, res.A, cross.positions, center, cfg.Terrain/4)
	return res
}

// centerUsage computes what share of origin's data relays happened
// inside the central disk and their mean distance from the center. The
// distance sum runs over ascending node ids, so its rounding does not
// follow the relay map's iteration order.
func centerUsage(c *trace.PathCollector, origin packet.NodeID, pos []geo.Point, center geo.Point, radius float64) (share, meanDist float64) {
	used := c.NodesUsed(origin, packet.KindData)
	var total, inside int
	var distSum float64
	for id := range pos {
		n := used[packet.NodeID(id)]
		if n == 0 || packet.NodeID(id) == origin {
			continue // not a relay, or the source itself, pinned in place
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
	paths     *trace.PathCollector
	positions []geo.Point
	delivered uint64
	events    uint64
}

// fig2Field is both Figure 2 runs' document before flows: Routeless
// Routing over the connected field.
func fig2Field(cfg Fig2Config) scenario.Scenario {
	sc := field(cfg.Nodes, cfg.Terrain, cfg.Range, cfg.Seed, scenario.ProtoRouteless, cfg.Lambda)
	// A generous path budget lets packets swing wide around the
	// congested middle — the behavior this figure demonstrates.
	sc.Routeless = &scenario.Routeless{PathMargin: 5}
	sc.Interval, sc.DataSize, sc.Duration = cfg.Interval, packet.SizeData, cfg.Duration
	return sc
}

// fig2Endpoints returns A, B, C and D: the nodes nearest four fixed
// points of the field. It reads them off a probe build of fig2Field,
// whose placement is the real runs' (placement is a pure function of
// the seed).
func fig2Endpoints(cfg Fig2Config) [4]packet.NodeID {
	probe, err := scenario.Build(fig2Field(cfg))
	if err != nil {
		panic(err)
	}
	nw, t := probe.Network(), cfg.Terrain
	return [4]packet.NodeID{
		nearestNode(nw, geo.Point{X: 0.08 * t, Y: 0.5 * t}),
		nearestNode(nw, geo.Point{X: 0.92 * t, Y: 0.5 * t}),
		nearestNode(nw, geo.Point{X: 0.5 * t, Y: 0.08 * t}),
		nearestNode(nw, geo.Point{X: 0.5 * t, Y: 0.92 * t}),
	}
}

// fig2Spec is one Figure 2 run over endpoints A, B, C, D: the A→B
// flow, plus heavy C↔D cross traffic when withCross.
func fig2Spec(cfg Fig2Config, ends [4]packet.NodeID, withCross bool) scenario.Scenario {
	sc := fig2Field(cfg)
	a, b, c, d := int(ends[0]), int(ends[1]), int(ends[2]), int(ends[3])
	sc.Flows = []scenario.Flow{{Src: a, Dst: b, Start: cfg.Interval}}
	if withCross {
		// Bidirectional heavy cross traffic saturates the middle.
		cross := cfg.CrossInterval
		sc.Flows = append(sc.Flows,
			scenario.Flow{Src: c, Dst: d, Start: cross / 2, Interval: cross, Size: cfg.CrossSize},
			scenario.Flow{Src: d, Dst: c, Start: cross / 3, Interval: cross, Size: cfg.CrossSize})
	}
	return sc
}

func runFig2Scenario(ctx *sweep.Context, cfg Fig2Config, ends [4]packet.NodeID, withCross bool) fig2Out {
	out := fig2Out{paths: trace.NewPathCollector()}
	run, err := scenario.BuildWith(fig2Spec(cfg, ends, withCross), scenario.BuildOptions{Runtime: ctx.Runtime()})
	if err != nil {
		panic(err)
	}

	nw := run.Network()
	out.positions = make([]geo.Point, len(nw.Nodes))
	for i, n := range nw.Nodes {
		out.positions[i] = n.Pos
	}
	// Observation hooks, attached before the run advances: every node's
	// relays, and A's arrivals at B on top of the run's own delivery
	// metering.
	for _, n := range nw.Nodes {
		id := n.ID
		n.Net.(*routing.Routeless).OnRelay = func(pkt *packet.Packet) { out.paths.Record(id, pkt) }
	}
	b := nw.Nodes[ends[1]]
	metered := b.OnAppReceive
	b.OnAppReceive = func(p *packet.Packet) {
		metered(p)
		if p.Origin == ends[0] {
			out.delivered++
		}
	}
	// A conservation-law violation is a simulator bug, not a measurement.
	if _, err := run.Finish(); err != nil {
		panic(err)
	}
	out.events = nw.Processed()
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
