package geo

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	a, b := Point{0, 0}, Point{3, 4}
	if d := a.Dist(b); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d2 := a.Dist2(b); d2 != 25 {
		t.Fatalf("Dist2 = %v, want 25", d2)
	}
	if a.Dist(a) != 0 {
		t.Fatal("Dist to self should be 0")
	}
}

func TestDistSymmetry(t *testing.T) {
	f := func(x1, y1, x2, y2 float64) bool {
		if math.IsNaN(x1) || math.IsNaN(y1) || math.IsNaN(x2) || math.IsNaN(y2) {
			return true
		}
		a, b := Point{x1, y1}, Point{x2, y2}
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(100, 50)
	if r.Width() != 100 || r.Height() != 50 {
		t.Fatalf("dims %v x %v", r.Width(), r.Height())
	}
	if !r.Contains(Point{0, 0}) {
		t.Fatal("min corner should be contained")
	}
	if r.Contains(Point{100, 50}) {
		t.Fatal("max corner should be excluded")
	}
	if r.Contains(Point{-1, 10}) {
		t.Fatal("outside point contained")
	}
	c := r.Clamp(Point{200, -5})
	if !r.Contains(c) {
		t.Fatalf("clamped point %v not contained", c)
	}
}

func TestUniformPointsInside(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	rect := NewRect(1000, 1000)
	pts := UniformPoints(r, rect, 500)
	if len(pts) != 500 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !rect.Contains(p) {
			t.Fatalf("point %v outside rect", p)
		}
	}
}

func TestUniformPointsDeterministic(t *testing.T) {
	rect := NewRect(100, 100)
	a := UniformPoints(rand.New(rand.NewSource(5)), rect, 50)
	b := UniformPoints(rand.New(rand.NewSource(5)), rect, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("placement not deterministic")
		}
	}
}

func TestGridPoints(t *testing.T) {
	rect := NewRect(100, 100)
	pts := GridPoints(nil, rect, 25, 0)
	if len(pts) != 25 {
		t.Fatalf("got %d points, want 25", len(pts))
	}
	for _, p := range pts {
		if !rect.Contains(p) {
			t.Fatalf("point %v outside rect", p)
		}
	}
	// 5x5 lattice: first point at (10,10)
	if pts[0].Dist(Point{10, 10}) > 1e-9 {
		t.Fatalf("first lattice point %v, want (10,10)", pts[0])
	}
	withJitter := GridPoints(rand.New(rand.NewSource(2)), rect, 25, 3)
	same := 0
	for i := range withJitter {
		if withJitter[i] == pts[i] {
			same++
		}
	}
	if same == len(pts) {
		t.Fatal("jitter had no effect")
	}
}

// bruteWithin is the reference implementation for WithinRadius.
func bruteWithin(pts []Point, center Point, radius float64, exclude int) []int {
	var out []int
	for i, p := range pts {
		if i == exclude {
			continue
		}
		if p.Dist(center) <= radius {
			out = append(out, i)
		}
	}
	return out
}

func TestGridWithinRadiusMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rect := NewRect(1000, 1000)
	pts := UniformPoints(r, rect, 300)
	g := NewGrid(rect, 250, pts)
	for trial := 0; trial < 50; trial++ {
		center := Point{r.Float64() * 1000, r.Float64() * 1000}
		radius := 50 + r.Float64()*400
		got := g.WithinRadius(nil, center, radius, -1)
		want := bruteWithin(pts, center, radius, -1)
		slices.Sort(got)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestGridExclude(t *testing.T) {
	rect := NewRect(100, 100)
	pts := []Point{{50, 50}, {51, 50}, {90, 90}}
	g := NewGrid(rect, 25, pts)
	got := g.WithinRadius(nil, pts[0], 10, 0)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v, want [1]", got)
	}
}

// TestWithinRadiusAcrossTileBoundary pins that neighbor queries are
// oblivious to the cell lattice: points straddling a cell edge or corner
// see each other symmetrically.
func TestWithinRadiusAcrossTileBoundary(t *testing.T) {
	rect := NewRect(100, 100)
	pts := []Point{{49, 50}, {51, 50}, {50, 49}, {50, 51}, {49.5, 49.5}}
	g := NewGrid(rect, 25, pts)
	if a, b := g.cellOf(pts[0]), g.cellOf(pts[1]); a == b {
		t.Fatalf("fixture broken: points 0,1 share cell %d", a)
	}
	for i := range pts {
		for j := range pts {
			if i == j {
				continue
			}
			near := g.WithinRadius(nil, pts[i], 5, i)
			if slices.Contains(near, j) != slices.Contains(g.WithinRadius(nil, pts[j], 5, j), i) {
				t.Errorf("asymmetric neighborhood between %d and %d", i, j)
			}
			if !slices.Contains(near, j) {
				t.Errorf("point %d should see point %d across the cell edge", i, j)
			}
		}
	}
}

func TestGridQueryOutsideBounds(t *testing.T) {
	rect := NewRect(100, 100)
	pts := []Point{{5, 5}, {95, 95}}
	g := NewGrid(rect, 30, pts)
	got := g.WithinRadius(nil, Point{-50, -50}, 90, -1)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("got %v, want [0]", got)
	}
	if got := g.WithinRadius(nil, Point{500, 500}, 10, -1); len(got) != 0 {
		t.Fatalf("expected empty, got %v", got)
	}
}

func TestGridMoveTo(t *testing.T) {
	rect := NewRect(100, 100)
	pts := []Point{{10, 10}, {90, 90}}
	g := NewGrid(rect, 20, pts)
	if got := g.WithinRadius(nil, Point{90, 90}, 5, -1); len(got) != 1 {
		t.Fatalf("precondition failed: %v", got)
	}
	g.MoveTo(0, Point{88, 88})
	got := g.WithinRadius(nil, Point{90, 90}, 5, -1)
	if len(got) != 2 {
		t.Fatalf("after move got %v, want both points", got)
	}
	if g.At(0).Dist(Point{88, 88}) != 0 {
		t.Fatal("At did not reflect move")
	}
	// Move back out.
	g.MoveTo(0, Point{10, 10})
	if got := g.WithinRadius(nil, Point{90, 90}, 5, -1); len(got) != 1 {
		t.Fatalf("after move-back got %v", got)
	}
}

func TestGridNearest(t *testing.T) {
	rect := NewRect(1000, 1000)
	r := rand.New(rand.NewSource(4))
	pts := UniformPoints(r, rect, 200)
	g := NewGrid(rect, 100, pts)
	for trial := 0; trial < 30; trial++ {
		c := Point{r.Float64() * 1000, r.Float64() * 1000}
		got := g.Nearest(c)
		best, bestD := -1, math.MaxFloat64
		for i, p := range pts {
			if d := p.Dist(c); d < bestD {
				bestD, best = d, i
			}
		}
		if got != best {
			t.Fatalf("Nearest(%v) = %d (d=%v), want %d (d=%v)",
				c, got, pts[got].Dist(c), best, bestD)
		}
	}
}

func TestGridNearestEmpty(t *testing.T) {
	g := NewGrid(NewRect(10, 10), 5, nil)
	if g.Nearest(Point{1, 1}) != -1 {
		t.Fatal("empty grid should return -1")
	}
}

// Property: WithinRadius = brute force on random configurations.
func TestQuickGridEquivalence(t *testing.T) {
	f := func(seed int64, n uint8, radius float64) bool {
		r := rand.New(rand.NewSource(seed))
		rect := NewRect(500, 500)
		pts := UniformPoints(r, rect, int(n)+1)
		rad := math.Mod(math.Abs(radius), 500)
		g := NewGrid(rect, 80, pts)
		c := Point{r.Float64() * 500, r.Float64() * 500}
		got := g.WithinRadius(nil, c, rad, -1)
		want := bruteWithin(pts, c, rad, -1)
		slices.Sort(got)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGridBadCellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGrid(NewRect(10, 10), 0, nil)
}
