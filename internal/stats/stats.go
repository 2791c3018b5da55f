// Package stats provides the measurement plumbing for experiments:
// streaming moments (Welford) and table/CSV formatting for reproducing
// the figures.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Welford accumulates streaming mean and variance without storing
// samples (Welford's online algorithm), plus min and max.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one sample into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge folds another accumulator into this one (Chan et al. parallel
// update), so per-run accumulators can be combined across seeds.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := float64(w.n + o.n)
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/n
	w.mean += d * float64(o.n) / n
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n += o.n
}

// N returns the sample count.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest sample (0 when empty).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return 0
	}
	return w.min
}

// Max returns the largest sample (0 when empty).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return 0
	}
	return w.max
}

// CI95 returns the 95% normal-approximation confidence half-width.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return 1.96 * w.Std() / math.Sqrt(float64(w.n))
}

// Table renders aligned experiment output and CSV, one row per
// parameter point, the way the paper's figures tabulate series.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats with %.4g.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case float32:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Row returns row i.
func (t *Table) Row(i int) []string { return t.rows[i] }

// numCols returns the table's true column count: rows may be wider than
// Headers (ad-hoc instrumentation appends extra cells), and both
// renderers pad consistently rather than dropping or misrendering the
// extras.
func (t *Table) numCols() int {
	n := len(t.Headers)
	for _, r := range t.rows {
		if len(r) > n {
			n = len(r)
		}
	}
	return n
}

// cell returns row[i], or "" past the row's end.
func cell(row []string, i int) string {
	if i < len(row) {
		return row[i]
	}
	return ""
}

// String renders an aligned text table. Rows wider than Headers get
// empty-header columns; rows narrower than the widest get empty cells.
func (t *Table) String() string {
	width := make([]int, t.numCols())
	for i, h := range t.Headers {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i := range width {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell(cells, i))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (headers included).
// Every line has the same field count: short rows (and a short header
// line) are padded with empty fields to the widest row.
func (t *Table) CSV() string {
	n := t.numCols()
	var b strings.Builder
	writeLine := func(cells []string) {
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(cell(cells, i))
		}
		b.WriteByte('\n')
	}
	writeLine(t.Headers)
	for _, r := range t.rows {
		writeLine(r)
	}
	return b.String()
}
