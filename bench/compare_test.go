package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := decl{name: "run_wall_s", better: "lower", bound: 0.10}
	higher := decl{name: "cycles_per_s", better: "higher", bound: 0.10}
	m := func(v, lo, hi float64) metric { return metric{Value: v, Q1: lo, Q3: hi, Min: lo, Max: hi, N: 5} }
	for _, c := range []struct {
		name string
		d    decl
		a, b metric
		want string
	}{
		{"within bound, tight", lower, m(1, 0.98, 1.02), m(1.05, 1.03, 1.07), verdictOK},
		{"median worse than bound", lower, m(1, 0.98, 1.02), m(1.12, 1.10, 1.14), verdictWorse},
		{"wide spread, overlapping", lower, m(1, 0.9, 1.2), m(1.03, 0.95, 1.1), verdictUnresolved},
		{"wide spread, every run better", lower, m(1, 0.9, 1.2), m(0.8, 0.7, 0.89), verdictOK},
		{"higher is better: drop beyond bound", higher, m(10, 9.9, 10.1), m(8.5, 8.4, 8.6), verdictWorse},
		{"higher is better: rise", higher, m(10, 9.9, 10.1), m(12, 11.9, 12.1), verdictOK},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFiles: the command prints one row per workload × metric
// and exits 1 exactly when a metric is worse.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, wall float64) string {
		r := report{Seed: 1, Workloads: []result{{Workload: "flood_dense", Correct: true, Ops: 5}}}
		for _, d := range endToEnd {
			v := 1.0
			if d.name == "run_wall_s" {
				v = wall
			}
			r.Workloads[0].Metrics = append(r.Workloads[0].Metrics, metric{Name: d.name, Unit: d.unit, Value: v, Q1: v, Q3: v, Min: v, Max: v, N: 1})
		}
		if err := writeJSON(dir, name, r); err != nil {
			t.Fatal(err)
		}
		return filepath.Join(dir, name)
	}
	a, same, slow := mk("a.json", 1), mk("same.json", 1.05), mk("slow.json", 1.4)
	var out, errOut bytes.Buffer
	if code := compareFiles(&out, &errOut, a, same); code != 0 {
		t.Errorf("5 %% slower: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if n := strings.Count(out.String(), "flood_dense"); n != len(endToEnd) {
		t.Errorf("printed %d rows, want %d", n, len(endToEnd))
	}
	out.Reset()
	if code := compareFiles(&out, &errOut, a, slow); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("40 %% slower: exit %d\n%s", code, out.String())
	}
}
