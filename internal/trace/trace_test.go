package trace

import (
	"strings"
	"testing"

	"routeless/internal/geo"
	"routeless/internal/packet"
)

func TestRelayLoadAndNodesUsed(t *testing.T) {
	c := NewPathCollector()
	for seq := uint32(1); seq <= 3; seq++ {
		c.Record(5, &packet.Packet{Kind: packet.KindData, Origin: 1, Seq: seq})
		c.Record(6, &packet.Packet{Kind: packet.KindData, Origin: 1, Seq: seq})
	}
	c.Record(5, &packet.Packet{Kind: packet.KindReply, Origin: 2, Seq: 1})
	used := c.NodesUsed(1, packet.KindData)
	if used[5] != 3 || used[6] != 3 || len(used) != 2 {
		t.Fatalf("NodesUsed = %v", used)
	}
	if used := c.NodesUsed(2, packet.KindData); len(used) != 0 {
		t.Fatalf("NodesUsed of an unrecorded flow = %v", used)
	}
}

func TestCanvasRendering(t *testing.T) {
	rect := geo.NewRect(100, 100)
	cv := NewCanvas(rect, 20)
	cv.PlotAll([]geo.Point{{X: 5, Y: 5}, {X: 95, Y: 95}}, '.')
	cv.Plot(geo.Point{X: 50, Y: 50}, 'X')
	s := cv.String()
	if !strings.Contains(s, "X") || !strings.Contains(s, ".") {
		t.Fatalf("render missing glyphs:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// 10 content rows (20 wide, 2:1 aspect) + 2 border rows.
	if len(lines) != 12 {
		t.Fatalf("got %d lines", len(lines))
	}
	for _, l := range lines {
		if len([]rune(l)) != 22 {
			t.Fatalf("ragged line %q", l)
		}
	}
}

func TestCanvasOverwriteOrder(t *testing.T) {
	cv := NewCanvas(geo.NewRect(10, 10), 10)
	p := geo.Point{X: 5, Y: 5}
	cv.Plot(p, '.')
	cv.Plot(p, 'A') // endpoints drawn last win
	if !strings.Contains(cv.String(), "A") {
		t.Fatal("later plot did not overwrite")
	}
}

func TestCanvasIgnoresOutside(t *testing.T) {
	cv := NewCanvas(geo.NewRect(10, 10), 10)
	cv.Plot(geo.Point{X: -5, Y: 50}, 'X') // must not panic or draw
	if strings.Contains(cv.String(), "X") {
		t.Fatal("out-of-rect point drawn")
	}
}

func TestSVGRendering(t *testing.T) {
	rect := geo.NewRect(1000, 500)
	s := NewSVG(rect, 400)
	s.Dots([]geo.Point{{X: 10, Y: 10}, {X: 990, Y: 490}}, 2, "#ccc")
	s.Label(geo.Point{X: 500, Y: 250}, "A", "black", 14)
	out := s.String()
	for _, want := range []string{"<svg", "circle", "text", "</svg>"} {
		if !strings.Contains(out, want) {
			t.Fatalf("SVG missing %q:\n%s", want, out)
		}
	}
	// Aspect ratio preserved: 1000x500 at width 400 → height 200.
	if !strings.Contains(out, `height="200"`) {
		t.Fatal("aspect ratio not preserved")
	}
}

func TestRenderSVGFlows(t *testing.T) {
	rect := geo.NewRect(100, 100)
	positions := []geo.Point{{X: 10, Y: 10}, {X: 50, Y: 50}, {X: 90, Y: 90}}
	c := NewPathCollector()
	c.Record(1, &packet.Packet{Kind: packet.KindData, Origin: 0, Seq: 1})
	out := RenderSVG(rect, positions, c,
		[]FlowSpec{{Origin: 0, Kind: packet.KindData, Color: "#0072b2"}},
		map[packet.NodeID]string{0: "A", 2: "B"}, 300)
	if !strings.Contains(out, "#0072b2") {
		t.Fatal("flow color missing")
	}
	if !strings.Contains(out, ">A<") || !strings.Contains(out, ">B<") {
		t.Fatal("labels missing")
	}
}
