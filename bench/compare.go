package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of comparing one metric of two result files, a the base.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"      // b's median is worse than a's by more than the bound
	verdictUnresolved = "unresolved" // interquartile spread wider than the bound and the runs overlap
	verdictSame       = "same"       // exact per-layer metric, identical
	verdictDiffers    = "differs"    // exact per-layer metric, not identical
)

// worseBy returns by what share of a the value b is worse, negative
// when it is better.
func worseBy(d decl, a, b float64) float64 {
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge classifies one end-to-end metric. A metric is unresolved when
// either side's interquartile spread exceeds the bound, unless every
// sample of b reads better than every sample of a.
func judge(d decl, a, b metric) string {
	if worseBy(d, a.Value, b.Value) > d.bound {
		return verdictWorse
	}
	spread := func(m metric) float64 { return (m.Q3 - m.Q1) / m.Value }
	allBetter := b.Max < a.Min
	if d.better == "higher" {
		allBetter = b.Min > a.Max
	}
	if (spread(a) > d.bound || spread(b) > d.bound) && !allBetter {
		return verdictUnresolved
	}
	return verdictOK
}

func loadReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func findMetric(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// compareFiles prints, per workload, every end-to-end metric of two
// untraced result files with both medians, the ratio b/a, the bound and
// a verdict; for two traced files it checks that the exact per-layer
// metrics are identical. It returns 1 on any worse or differs.
func compareFiles(stdout, stderr io.Writer, pathA, pathB string) int {
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if a.Trace != b.Trace {
		fmt.Fprintln(stderr, "bench: cannot compare a traced result with an untraced one")
		return 2
	}
	decls := endToEnd
	if a.Trace {
		decls = perLayer
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(stdout, "note: seeds differ (%d vs %d), so the inputs differ\n", a.Seed, b.Seed)
	}
	bad := 0
	fmt.Fprintf(stdout, "%-14s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	for _, ra := range a.Workloads {
		i := 0
		for i < len(b.Workloads) && b.Workloads[i].Workload != ra.Workload {
			i++
		}
		if i == len(b.Workloads) {
			continue
		}
		for _, d := range decls {
			ma, oka := findMetric(ra.Metrics, d.name)
			mb, okb := findMetric(b.Workloads[i].Metrics, d.name)
			if !oka || !okb || (a.Trace && !d.exact) {
				continue
			}
			verdict, bound := "", "exact"
			if a.Trace {
				verdict = verdictSame
				// Exact metrics repeat bit for bit, so compare the bits.
				if math.Float64bits(ma.Value) != math.Float64bits(mb.Value) {
					verdict = verdictDiffers
				}
			} else {
				verdict, bound = judge(d, ma, mb), fmt.Sprintf("%.0f%%", 100*d.bound)
			}
			if verdict == verdictWorse || verdict == verdictDiffers {
				bad++
			}
			fmt.Fprintf(stdout, "%-14s %-26s %14.6g %14.6g %8.3fx %7s  %s\n",
				ra.Workload, d.name, ma.Value, mb.Value, mb.Value/ma.Value, bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse or different\n", bad)
		return 1
	}
	return 0
}
