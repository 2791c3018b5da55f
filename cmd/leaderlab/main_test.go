package main

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// Arguments that name no study are rejected with exit status 2 before
// any trial runs, and nothing is printed: -trials 0 used to print a
// table of NaN and exit 0, and -lambda-ms -1 panicked in the arbiter's
// timer.
func TestBadArgumentsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-sizes", "2,x"},
		{"-sizes", "0"},
		{"-trials", "0"},
		{"-trials", "-3"},
		{"-lambda-ms", "0"},
		{"-lambda-ms", "-1"},
		{"-lambda-ms", "NaN"},
		{"-lambda-ms", "+Inf"},
		{"-loss", "-0.1"},
		{"-loss", "1.5"},
		{"-loss", "NaN"},
		{"-metric", "ssaf"},
		{"-no-such-flag"},
	} {
		var out strings.Builder
		if code := run(append([]string{"-sizes", "2", "-trials", "1"}, args...), &out); code != 2 {
			t.Errorf("%v: exit status %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before rejecting", args, out.String())
		}
	}
}

// rows runs leaderlab and returns its table's data rows as numbers,
// one row per size.
func rows(t *testing.T, args ...string) [][]float64 {
	t.Helper()
	var out strings.Builder
	if code := run(args, &out); code != 0 {
		t.Fatalf("%v: exit status %d", args, code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got [][]float64
	for _, line := range lines[3:] { // title, header, rule
		var row []float64
		for _, f := range strings.Fields(line) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%v: cell %q in %q is not a finite number", args, f, line)
			}
			row = append(row, v)
		}
		if len(row) != 6 {
			t.Fatalf("%v: row %q has %d cells, want 6", args, line, len(row))
		}
		got = append(got, row)
	}
	return got
}

// The gradient metric gives every contender its own priority band, so
// round 1 almost always has exactly one winner and the arbiter needs
// no re-trigger.
func TestGradientRun(t *testing.T) {
	got := rows(t, "-sizes", "3,6", "-trials", "20", "-metric", "gradient")
	if len(got) != 2 || got[0][0] != 3 || got[1][0] != 6 {
		t.Fatalf("rows %v, want one per size 3 and 6", got)
	}
	for _, r := range got {
		if r[1] < 0.8 || r[2] != 0 || r[3] != 1 {
			t.Errorf("size %v: p_single %v, p_collision %v, mean_rounds %v; want ≥ 0.8, 0, 1", r[0], r[1], r[2], r[3])
		}
	}
}

// Link loss reaches the trials: with half the messages dropped, the
// outcomes differ from the lossless run of the same seed, and the
// arbiter still resolves some elections (mean rounds ≥ 1).
func TestLossyRun(t *testing.T) {
	lossy := rows(t, "-sizes", "4", "-trials", "20", "-loss", "0.5")
	clean := rows(t, "-sizes", "4", "-trials", "20")
	if lossy[0][3] < 1 {
		t.Fatalf("lossy mean_rounds %v, want ≥ 1", lossy[0][3])
	}
	if lossy[0][4] == clean[0][4] && lossy[0][5] == clean[0][5] {
		t.Fatalf("loss 0.5 left messages %v and latency %v as at loss 0", lossy[0][4], lossy[0][5])
	}
}
