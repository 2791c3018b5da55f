package geo

import (
	"math/rand"
	"slices"
	"testing"
)

// The hierarchical index promises more than set equivalence: every
// WithinRadius call must return the exact slice — ids AND order — the
// flat Grid returns, because the phy channel treats the two as
// interchangeable and the golden journals pin the downstream bytes.

func hierPair(r *rand.Rand, rect Rect, cell float64, n int) (*Grid, *HierGrid, []Point) {
	pts := UniformPoints(r, rect, n)
	return NewGrid(rect, cell, pts), NewHierGrid(rect, cell, pts), pts
}

func checkSameQuery(t *testing.T, g *Grid, h *HierGrid, center Point, radius float64, exclude int) {
	t.Helper()
	want := g.WithinRadius(nil, center, radius, exclude)
	got := h.WithinRadius(nil, center, radius, exclude)
	if !slices.Equal(want, got) {
		t.Fatalf("WithinRadius(%v, r=%v, excl=%d) diverged:\nflat: %v\nhier: %v",
			center, radius, exclude, want, got)
	}
}

func TestHierGridEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rect := NewRect(2000, 1500)
	for _, n := range []int{0, 1, 50, 800} {
		for _, cell := range []float64{55, 137, 275, 900} {
			g, h, pts := hierPair(r, rect, cell, n)
			for q := 0; q < 60; q++ {
				center := Point{X: r.Float64()*2400 - 200, Y: r.Float64()*1900 - 200}
				radius := r.Float64() * 700
				exclude := -1
				if n > 0 && q%3 == 0 {
					exclude = r.Intn(n)
				}
				checkSameQuery(t, g, h, center, radius, exclude)
			}
			// Queries centered exactly on indexed points, including radius
			// 0 (self-distance ties) and a radius covering everything.
			for i := 0; i < n && i < 10; i++ {
				checkSameQuery(t, g, h, pts[i], 0, -1)
				checkSameQuery(t, g, h, pts[i], 250, i)
				checkSameQuery(t, g, h, pts[i], 4000, -1)
			}
		}
	}
}

func TestHierGridEquivalenceUnderMoves(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	rect := NewRect(1000, 1000)
	g, h, _ := hierPair(r, rect, 125, 300)
	for step := 0; step < 400; step++ {
		id := r.Intn(300)
		// Include moves outside the rect: both levels must agree on the
		// clamped boundary binning.
		p := Point{X: r.Float64()*1400 - 200, Y: r.Float64()*1400 - 200}
		g.MoveTo(id, p)
		h.MoveTo(id, p)
		if step%10 == 0 {
			center := Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
			checkSameQuery(t, g, h, center, r.Float64()*500, id)
		}
	}
	for q := 0; q < 50; q++ {
		center := Point{X: r.Float64()*1400 - 200, Y: r.Float64()*1400 - 200}
		checkSameQuery(t, g, h, center, r.Float64()*600, -1)
	}
}

func TestHierGridBoundaryAndClamp(t *testing.T) {
	rect := NewRect(500, 500)
	// Points on edges, corners, outside the rect (clamped into border
	// cells), and stacked on one spot.
	pts := []Point{
		{0, 0}, {500, 500}, {500, 0}, {0, 500},
		{-40, 250}, {540, 250}, {250, -40}, {250, 540},
		{250, 250}, {250, 250}, {250, 250},
		{499.9999, 499.9999}, {0.0001, 0.0001},
	}
	g := NewGrid(rect, 100, pts)
	h := NewHierGrid(rect, 100, pts)
	centers := append([]Point{{0, 0}, {500, 500}, {-40, 250}, {250, 250}, {600, 600}}, pts...)
	for _, c := range centers {
		for _, radius := range []float64{0, 1, 99.99, 100, 150, 710} {
			for _, excl := range []int{-1, 0, 8} {
				checkSameQuery(t, g, h, c, radius, excl)
			}
		}
	}
	// Nearest and At delegate to the fine grid.
	if got, want := h.Nearest(Point{260, 260}), g.Nearest(Point{260, 260}); got != want {
		t.Fatalf("Nearest diverged: hier %d, flat %d", got, want)
	}
	if h.Len() != g.Len() || h.At(3) != g.At(3) {
		t.Fatal("Len/At diverged from the fine grid")
	}
}

// TestHierGridBulkAppendHappens guards the point of the hierarchy: a
// query radius spanning several cells must classify interior cells as
// fully inside (covered indirectly — equivalence holds — but this
// pins that the fast path actually executes on a dense field, so a
// regression to always-scan cannot hide).
func TestHierGridBulkAppendHappens(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rect := NewRect(1000, 1000)
	_, h, _ := hierPair(r, rect, 50, 2000)
	inside := 0
	for cy := 1; cy < h.fine.rows-1; cy++ {
		for cx := 1; cx < h.fine.cols-1; cx++ {
			if h.cellInside(cx, cy, Point{500, 500}, 300*300) {
				inside++
			}
		}
	}
	if inside == 0 {
		t.Fatal("no interior cell classified inside a 300 m disk over 50 m cells")
	}
}
