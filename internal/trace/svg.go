package trace

import (
	"fmt"
	"slices"
	"strings"

	"routeless/internal/geo"
	"routeless/internal/packet"
)

// SVG renders node positions and per-flow relay sets as a standalone
// SVG document — the publication-quality counterpart of Canvas. Layers
// are drawn in the order added, so add background nodes first and
// endpoints last, exactly like Canvas.
type SVG struct {
	rect   geo.Rect
	width  float64
	height float64
	body   strings.Builder
}

// NewSVG creates a renderer mapping rect onto a drawing width pixels
// wide (height follows the terrain's aspect ratio).
func NewSVG(rect geo.Rect, width float64) *SVG {
	return &SVG{
		rect:   rect,
		width:  width,
		height: width * rect.Height() / rect.Width(),
	}
}

func (s *SVG) x(p geo.Point) float64 {
	return (p.X - s.rect.Min.X) / s.rect.Width() * s.width
}

func (s *SVG) y(p geo.Point) float64 {
	return (p.Y - s.rect.Min.Y) / s.rect.Height() * s.height
}

// Dots draws a circle of the given radius and fill at every position.
func (s *SVG) Dots(ps []geo.Point, radius float64, fill string) {
	for _, p := range ps {
		fmt.Fprintf(&s.body,
			`<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s"/>`+"\n",
			s.x(p), s.y(p), radius, fill)
	}
}

// Label writes text centered at p.
func (s *SVG) Label(p geo.Point, text, fill string, size float64) {
	fmt.Fprintf(&s.body,
		`<text x="%.1f" y="%.1f" fill="%s" font-size="%.0f" text-anchor="middle" font-family="sans-serif" font-weight="bold">%s</text>`+"\n",
		s.x(p), s.y(p)+size/3, fill, size, text)
}

// String emits the complete SVG document.
func (s *SVG) String() string {
	return fmt.Sprintf(
		`<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+
			"\n"+`<rect width="%.0f" height="%.0f" fill="white" stroke="black"/>`+"\n%s</svg>\n",
		s.width, s.height, s.width, s.height, s.width, s.height, s.body.String())
}

// FlowSVG renders one collector's relay picture: all nodes gray, relays
// of each listed flow in its color, endpoint labels on top.
type FlowSpec struct {
	Origin packet.NodeID
	Kind   packet.Kind
	Color  string
}

// RenderSVG builds the standard flow map: positions in light gray, each
// flow's relay nodes colored, endpoints labeled.
func RenderSVG(rect geo.Rect, positions []geo.Point, c *PathCollector,
	flows []FlowSpec, labels map[packet.NodeID]string, width float64) string {
	s := NewSVG(rect, width)
	s.Dots(positions, 2, "#cccccc")
	for _, f := range flows {
		used := c.NodesUsed(f.Origin, f.Kind)
		ids := make([]int, 0, len(used))
		for id := range used {
			ids = append(ids, int(id))
		}
		slices.Sort(ids)
		pts := make([]geo.Point, 0, len(ids))
		for _, id := range ids {
			pts = append(pts, positions[id])
		}
		s.Dots(pts, 4, f.Color)
	}
	ids := make([]int, 0, len(labels))
	for id := range labels {
		ids = append(ids, int(id))
	}
	slices.Sort(ids)
	for _, id := range ids {
		s.Label(positions[id], labels[packet.NodeID(id)], "black", 18)
	}
	return s.String()
}
