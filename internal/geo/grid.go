package geo

import "math"

// Grid is a uniform-cell spatial index over a set of points, the
// wireless channel's only index. Queries return the ids of points
// within a radius of a center and visit only the O(r²) cells the disk
// overlaps. Cell size should be on the order of the query radius; the
// channel uses half its interference cutoff. Points move: waypoint
// mobility and churn re-bin them through MoveTo during a run.
type Grid struct {
	cell   float64
	cols   int
	rows   int
	origin Point
	cells  [][]int32 // cell -> point ids
	pts    []Point
	loc    []int32 // point id -> cell index
}

// NewGrid builds an index over pts covering rect with the given cell
// size. Points outside rect are clamped into the boundary cells.
func NewGrid(rect Rect, cell float64, pts []Point) *Grid {
	if cell <= 0 {
		panic("geo: cell size must be positive")
	}
	cols := int(math.Ceil(rect.Width()/cell)) + 1
	rows := int(math.Ceil(rect.Height()/cell)) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	g := &Grid{
		cell:   cell,
		cols:   cols,
		rows:   rows,
		origin: rect.Min,
		cells:  make([][]int32, cols*rows),
		pts:    append([]Point(nil), pts...),
		loc:    make([]int32, len(pts)),
	}
	for i, p := range pts {
		c := g.cellOf(p)
		g.cells[c] = append(g.cells[c], int32(i))
		g.loc[i] = int32(c)
	}
	return g
}

// HierGrid and NewHierGrid are Grid and NewGrid under the names the
// repository benchmark (bench/, frozen) uses. The index has one level:
// at Figure-1 density a query disk covers ~13 cells of ~7 points each,
// so a coarse level of blocks would find none empty to skip.
type HierGrid = Grid

// NewHierGrid is NewGrid; see HierGrid.
func NewHierGrid(rect Rect, cell float64, pts []Point) *Grid { return NewGrid(rect, cell, pts) }

func (g *Grid) cellOf(p Point) int {
	cx := int((p.X - g.origin.X) / g.cell)
	cy := int((p.Y - g.origin.Y) / g.cell)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// At returns the position of point id.
func (g *Grid) At(id int) Point { return g.pts[id] }

// MoveTo updates the position of point id, relocating it between cells
// when necessary.
func (g *Grid) MoveTo(id int, p Point) {
	old := g.loc[id]
	g.pts[id] = p
	nc := int32(g.cellOf(p))
	if nc == old {
		return
	}
	bucket := g.cells[old]
	for i, v := range bucket {
		if v == int32(id) {
			bucket[i] = bucket[len(bucket)-1]
			g.cells[old] = bucket[:len(bucket)-1]
			break
		}
	}
	g.cells[nc] = append(g.cells[nc], int32(id))
	g.loc[id] = nc
}

// WithinRadius appends to dst the ids of all points within radius of
// center (excluding the id `exclude`; pass a negative value to exclude
// nothing) and returns the extended slice. Ids are not sorted: cells
// come row-major, and the points of a cell in the order they were binned.
func (g *Grid) WithinRadius(dst []int, center Point, radius float64, exclude int) []int {
	r2 := radius * radius
	minCX := int((center.X - radius - g.origin.X) / g.cell)
	maxCX := int((center.X + radius - g.origin.X) / g.cell)
	minCY := int((center.Y - radius - g.origin.Y) / g.cell)
	maxCY := int((center.Y + radius - g.origin.Y) / g.cell)
	if minCX < 0 {
		minCX = 0
	}
	if minCY < 0 {
		minCY = 0
	}
	if maxCX >= g.cols {
		maxCX = g.cols - 1
	}
	if maxCY >= g.rows {
		maxCY = g.rows - 1
	}
	for cy := minCY; cy <= maxCY; cy++ {
		row := cy * g.cols
		for cx := minCX; cx <= maxCX; cx++ {
			for _, id := range g.cells[row+cx] {
				if int(id) == exclude {
					continue
				}
				if g.pts[id].Dist2(center) <= r2 {
					dst = append(dst, int(id))
				}
			}
		}
	}
	return dst
}
