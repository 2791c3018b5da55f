// Package geo provides 2-D geometry for node placement and a uniform
// grid spatial index used by the wireless channel to find potential
// receivers in O(neighbors) instead of O(nodes).
package geo

import (
	"math"
	"math/rand"
)

// Point is a position in meters on the simulation terrain.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q in meters.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared distance, avoiding the square root when
// only comparisons are needed.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{p.X + dx, p.Y + dy} }

// Rect is an axis-aligned rectangle; Min is inclusive, Max exclusive
// for containment purposes.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning (0,0)–(w,h).
func NewRect(w, h float64) Rect { return Rect{Point{0, 0}, Point{w, h}} }

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies inside r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X < r.Max.X && p.Y >= r.Min.Y && p.Y < r.Max.Y
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), math.Nextafter(r.Max.X, r.Min.X)),
		Y: math.Min(math.Max(p.Y, r.Min.Y), math.Nextafter(r.Max.Y, r.Min.Y)),
	}
}

// UniformPoints places n points uniformly at random inside r using the
// supplied stream. This is the paper's topology for every experiment
// ("nodes distributed randomly in a … terrain").
func UniformPoints(r *rand.Rand, rect Rect, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			X: rect.Min.X + r.Float64()*rect.Width(),
			Y: rect.Min.Y + r.Float64()*rect.Height(),
		}
	}
	return pts
}
