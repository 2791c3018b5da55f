// Package trace records which nodes relayed each flow's packets and
// renders the Figure 2 visualization: "the actual paths taken by
// different packets", showing Routeless Routing steering traffic around
// congested areas.
package trace

import (
	"strings"

	"routeless/internal/geo"
	"routeless/internal/packet"
)

// flowClass is one flow's packets of one kind: every logical packet
// origin sent of that kind, whatever its sequence number.
type flowClass struct {
	origin packet.NodeID
	kind   packet.Kind
}

// PathCollector counts relay transmissions per flow. Wire its Record
// method into a protocol's OnRelay hook.
type PathCollector struct {
	used map[flowClass]map[packet.NodeID]int
}

// NewPathCollector returns an empty collector.
func NewPathCollector() *PathCollector {
	return &PathCollector{used: make(map[flowClass]map[packet.NodeID]int)}
}

// Record logs that node transmitted pkt.
func (c *PathCollector) Record(node packet.NodeID, pkt *packet.Packet) {
	k := flowClass{pkt.Origin, pkt.Kind}
	m := c.used[k]
	if m == nil {
		m = make(map[packet.NodeID]int)
		c.used[k] = m
	}
	m[node]++
}

// NodesUsed returns the distinct relays of all packets from origin of
// the given kind, each with its transmission count — the union of route
// nodes for one flow. The map is the collector's own: read it only.
func (c *PathCollector) NodesUsed(origin packet.NodeID, kind packet.Kind) map[packet.NodeID]int {
	return c.used[flowClass{origin, kind}]
}

// Canvas renders node positions and per-flow relay sets as ASCII art.
type Canvas struct {
	rect   geo.Rect
	width  int
	height int
	cells  []rune
}

// NewCanvas creates a blank canvas mapping rect onto width columns; the
// row count preserves the aspect ratio (terminal cells are ~2:1).
func NewCanvas(rect geo.Rect, width int) *Canvas {
	height := int(float64(width) * rect.Height() / rect.Width() / 2)
	if height < 1 {
		height = 1
	}
	c := &Canvas{rect: rect, width: width, height: height}
	c.cells = make([]rune, width*height)
	for i := range c.cells {
		c.cells[i] = ' '
	}
	return c
}

func (c *Canvas) cellOf(p geo.Point) (int, bool) {
	if !c.rect.Contains(p) {
		return 0, false
	}
	x := int(float64(c.width) * (p.X - c.rect.Min.X) / c.rect.Width())
	y := int(float64(c.height) * (p.Y - c.rect.Min.Y) / c.rect.Height())
	if x >= c.width {
		x = c.width - 1
	}
	if y >= c.height {
		y = c.height - 1
	}
	return y*c.width + x, true
}

// Plot draws ch at position p. Later plots overwrite earlier ones, so
// draw background first, paths next, endpoints last.
func (c *Canvas) Plot(p geo.Point, ch rune) {
	if idx, ok := c.cellOf(p); ok {
		c.cells[idx] = ch
	}
}

// PlotAll draws ch at every position.
func (c *Canvas) PlotAll(ps []geo.Point, ch rune) {
	for _, p := range ps {
		c.Plot(p, ch)
	}
}

// String renders the canvas with a border.
func (c *Canvas) String() string {
	var b strings.Builder
	b.WriteString("+" + strings.Repeat("-", c.width) + "+\n")
	for y := 0; y < c.height; y++ {
		b.WriteByte('|')
		b.WriteString(string(c.cells[y*c.width : (y+1)*c.width]))
		b.WriteString("|\n")
	}
	b.WriteString("+" + strings.Repeat("-", c.width) + "+\n")
	return b.String()
}
