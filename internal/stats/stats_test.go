package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if math.Abs(w.Var()-32.0/7) > 1e-12 {
		t.Fatalf("Var = %v, want %v", w.Var(), 32.0/7)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 || w.CI95() != 0 || w.Min() != 0 || w.Max() != 0 {
		t.Fatal("empty accumulator should be all zeros")
	}
}

func TestWelfordSingleSample(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Var() != 0 || w.Min() != 3.5 || w.Max() != 3.5 {
		t.Fatal("single-sample stats wrong")
	}
}

// Property: Merge(a, b) equals feeding all samples into one accumulator.
func TestQuickMergeEquivalence(t *testing.T) {
	f := func(xs, ys []float64) bool {
		clean := func(in []float64) []float64 {
			var out []float64
			for _, v := range in {
				if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e8 {
					out = append(out, v)
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a, b, all Welford
		for _, x := range xs {
			a.Add(x)
			all.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
			all.Add(y)
		}
		a.Merge(b)
		if a.N() != all.N() {
			return false
		}
		if a.N() == 0 {
			return true
		}
		tol := 1e-6 * (1 + math.Abs(all.Mean()))
		if math.Abs(a.Mean()-all.Mean()) > tol {
			return false
		}
		tolV := 1e-5 * (1 + all.Var())
		return math.Abs(a.Var()-all.Var()) < tolV &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	var a, b Welford
	b.Add(1)
	b.Add(3)
	a.Merge(b)
	if a.N() != 2 || a.Mean() != 2 {
		t.Fatalf("merge into empty: n=%d mean=%v", a.N(), a.Mean())
	}
	var c Welford
	b.Merge(c) // merging empty is a no-op
	if b.N() != 2 {
		t.Fatal("merging empty changed accumulator")
	}
}

func TestCI95Shrinks(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var small, large Welford
	for i := 0; i < 10; i++ {
		small.Add(r.NormFloat64())
	}
	for i := 0; i < 1000; i++ {
		large.Add(r.NormFloat64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatal("CI should shrink with more samples")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := NewTable("Figure X", "interval", "delivery", "note")
	tb.AddRow(1.0, 0.987654, "ok")
	tb.AddRow(10, 1.0, "long-note-here")
	s := tb.String()
	if !strings.Contains(s, "Figure X") {
		t.Fatal("missing title")
	}
	if !strings.Contains(s, "interval") || !strings.Contains(s, "0.9877") {
		t.Fatalf("bad render:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, headers, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	if tb.Row(0)[2] != "ok" {
		t.Fatalf("Row(0) = %v", tb.Row(0))
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(1, 2.5)
	csv := tb.CSV()
	want := "a,b\n1,2.5\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

// Regression: rows wider than Headers used to panic String() (the width
// slice was sized by Headers but writeRow indexed it by row length) and
// render ragged CSV. The contract is now padding: the table widens to
// its widest row, missing headers/cells become empty fields.
func TestTableRowsWiderThanHeaders(t *testing.T) {
	tb := NewTable("wide", "a", "b")
	tb.AddRow(1, 2, 3, "extra")
	tb.AddRow(4) // narrower than headers, too
	s := tb.String()
	for _, want := range []string{"extra", "a", "b"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() dropped %q:\n%s", want, s)
		}
	}
	csv := tb.CSV()
	want := "a,b,,\n1,2,3,extra\n4,,,\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	for _, ln := range lines {
		if strings.Count(ln, ",") != 3 {
			t.Fatalf("ragged CSV line %q", ln)
		}
	}
}
