// Command simbench is the tracked benchmark harness: it runs the same
// reduced-scale experiment configurations as the repository's
// bench_test.go, measures kernel throughput (events/sec), wall time,
// and allocations per figure, and writes the results as JSON
// (BENCH_2.json at the repository root is the committed snapshot).
//
// Usage:
//
//	simbench                      # full figure set, report to stdout
//	simbench -quick               # CI subset (fig1, fig3, abl3)
//	simbench -out BENCH_4.json    # also write the JSON report
//	simbench -workers 4           # sweep worker count for every figure
//	simbench -scaling 1,2,4,8     # per-figure multicore scaling study
//	simbench -scaling 1,4 -min-speedup 1.6   # CI scaling gate
//	simbench -mega                # million-node arena cost point (events/sec, bytes/node)
//	simbench -mega -mega-nodes 100000 -max-bytes-node 1024 -baseline BENCH_9.json
//	simbench -baseline BENCH_2.json -max-regress 0.20
//	simbench -journal runs.jsonl  # append a JSONL run journal
//	simbench -cpuprofile cpu.out -memprofile mem.out -trace trace.out
//
// With -baseline, per-figure events/sec is compared against the
// baseline report and the command exits non-zero if any shared figure
// regressed by more than -max-regress (CI's performance gate).
//
// With -scaling, every selected figure is measured once per listed
// worker count; each figure's report entry records the single-worker
// measurement plus a scaling series (events/sec, allocs/event, speedup
// relative to 1 worker). Worker counts above GOMAXPROCS are clamped
// away up front — the report records both the requested and the
// measured list plus a note explaining any clamping, so a small box
// still measures what it can instead of silently skipping the study.
// With -min-speedup, the command exits non-zero if the aggregate
// speedup at the highest measured worker count falls short; when the
// clamped list has no parallel point (a 1-core runner), the gate is
// skipped with the reason recorded in the report.
//
// With -mega, a single fig_mega arena (default one million nodes at
// Figure-1 density) replaces the figure suite. On top of
// events/sec the mode reports the memory constants the O(active) data
// plane promises: the post-GC heap retained by the built arena divided
// by the node count (gated by -max-bytes-node — the per-node state the
// SoA layout controls), plus the run's peak heap footprint
// (runtime.ReadMemStats HeapSys growth, garbage and link caches
// included — recorded, not gated). -baseline compares mega events/sec
// under the usual -max-regress (BENCH_9.json is the committed mega
// snapshot).
//
// With -journal, the fig1/fig3/fig4 sweeps write one record per run
// (config, seed, final metric snapshot) and every measured figure adds
// a summary record stamped with git revision, Go version, and wall
// time. The profiling flags feed `go tool pprof` / `go tool trace` to
// localize hot-path regressions the gate catches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strings"
	"time"

	"routeless/internal/experiments"
	"routeless/internal/metrics"
	"routeless/internal/sim"
)

// FigureResult is the measured cost of regenerating one figure.
type FigureResult struct {
	Name         string  `json:"name"`
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	Allocs       uint64  `json:"allocs"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	// Scaling holds the -scaling study: one point per worker count.
	Scaling []ScalingPoint `json:"scaling,omitempty"`
}

// ScalingPoint is one figure's cost at one sweep worker count.
type ScalingPoint struct {
	Workers        int     `json:"workers"`
	WallSeconds    float64 `json:"wall_seconds"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// Speedup is events/sec relative to this figure's 1-worker point.
	Speedup float64 `json:"speedup"`
}

// Report is the schema of the committed benchmark snapshots
// (BENCH_2.json, BENCH_4.json, BENCH_9.json).
type Report struct {
	GoVersion         string         `json:"go_version"`
	GOMAXPROCS        int            `json:"gomaxprocs"`
	Quick             bool           `json:"quick"`
	Workers           int            `json:"workers,omitempty"`
	Figures           []FigureResult `json:"figures"`
	TotalEvents       uint64         `json:"total_events"`
	TotalWallSeconds  float64        `json:"total_wall_seconds"`
	TotalEventsPerSec float64        `json:"total_events_per_sec"`
	// ScalingRequested/ScalingMeasured record the -scaling study's
	// requested worker list and the GOMAXPROCS-clamped list actually
	// measured; ScalingNote explains any difference (never silent).
	ScalingRequested []int  `json:"scaling_requested,omitempty"`
	ScalingMeasured  []int  `json:"scaling_measured,omitempty"`
	ScalingNote      string `json:"scaling_note,omitempty"`
	// Mega holds the -mega arena cost point (BENCH_9.json).
	Mega *MegaResult `json:"mega,omitempty"`
	// BenchmarkFig1 preserves the hand-recorded `go test -bench`
	// before/after comparison from the baseline report, so regenerating
	// the snapshot does not lose the historical record.
	BenchmarkFig1 json.RawMessage `json:"benchmark_fig1,omitempty"`
}

// MegaResult is the -mega study's cost point: throughput plus the
// memory constants of one fig_mega arena.
type MegaResult struct {
	Nodes        int     `json:"nodes"`
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	// RetainedBytes is the post-GC heap retained by the built arena —
	// node, radio, MAC, and protocol state before any traffic — as
	// measured by the MegaConfig.MemProbe hook with sweep workers
	// pinned to 1. This is the per-node constant the SoA arena layout
	// controls.
	RetainedBytes uint64 `json:"retained_bytes"`
	// BytesPerNode is RetainedBytes divided by the node count — the
	// number the ≤1 KiB/node gate rides on.
	BytesPerNode float64 `json:"bytes_per_node"`
	// PeakHeapBytes is the heap footprint high-water mark of the whole
	// run: HeapSys growth from a post-GC baseline taken before the
	// arena was built. It includes link caches, the event pool, GC
	// headroom, and floating garbage — deliberately, since that is the
	// memory a box must actually have. Recorded, not gated.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
}

// The configurations below mirror bench_test.go exactly; simbench and
// `go test -bench` must measure the same workloads or the tracked
// numbers mean nothing.

func fig1Config() experiments.Fig1Config {
	return experiments.Fig1Config{
		Nodes: 60, Terrain: 800, Connections: 15,
		Intervals: []float64{1, 5, 10},
		Duration:  10, Seeds: []int64{1},
	}
}

func fig34Config() experiments.Fig34Config {
	return experiments.Fig34Config{
		Nodes: 150, Terrain: 1100, Duration: 20,
		Pairs: []int{2, 6}, Seeds: []int64{1},
		FailurePcts: []float64{0, 0.10}, Fig4Pairs: 6,
	}
}

type figure struct {
	name  string
	quick bool // included in the -quick CI subset
	run   func()
}

// figures returns the tracked workloads at one sweep worker count. The
// journal (nil when off) is threaded only into the figure sweeps that
// emit per-run records; the ablation reruns keep journal-less configs
// so their measured cost matches bench_test.go exactly.
func figures(j *metrics.Journal, workers int) []figure {
	fig1J := func() experiments.Fig1Config {
		c := fig1Config()
		c.Journal, c.Workers = j, workers
		return c
	}
	fig34J := func() experiments.Fig34Config {
		c := fig34Config()
		c.Journal, c.Workers = j, workers
		return c
	}
	fig1W := func() experiments.Fig1Config { c := fig1Config(); c.Workers = workers; return c }
	fig34W := func() experiments.Fig34Config { c := fig34Config(); c.Workers = workers; return c }
	return []figure{
		{"fig1", true, func() { experiments.RunFig1(fig1J()) }},
		{"fig2", false, func() {
			experiments.RunFig2(experiments.Fig2Config{
				Seed: 3, Nodes: 300, Terrain: 1500, Duration: 30, Workers: workers})
		}},
		{"fig3", true, func() { experiments.RunFig3(fig34J()) }},
		{"fig4", false, func() { experiments.RunFig4(fig34J()) }},
		{"abl1", false, func() {
			cfg := fig1W()
			cfg.Intervals = []float64{2}
			experiments.RunAbl1(cfg)
		}},
		{"abl2", false, func() {
			experiments.RunAbl2(fig34W(), []sim.Time{5e-3, 50e-3}, 4)
		}},
		{"abl3", true, func() { experiments.RunAbl3(workers, []int{2, 10, 50}, 100, 10e-3, 7) }},
		{"abl4", false, func() {
			cfg := fig34W()
			cfg.Pairs = []int{4}
			experiments.RunAbl4(cfg)
		}},
		{"abl5", false, func() { experiments.RunAbl5(fig34W(), []float64{0, 0.3}, 4) }},
	}
}

func measure(f figure) FigureResult {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	experiments.ResetEventCount()
	//lint:ignore wallclock wall-time of a whole experiment sweep, measured outside the event loop
	start := time.Now()
	f.run()
	//lint:ignore wallclock closes the timing window opened above, after every kernel has drained
	elapsed := time.Since(start).Seconds()
	events := experiments.EventCount()
	runtime.ReadMemStats(&after)
	return FigureResult{
		Name:         f.name,
		Events:       events,
		WallSeconds:  elapsed,
		EventsPerSec: float64(events) / elapsed,
		Allocs:       after.Mallocs - before.Mallocs,
		AllocBytes:   after.TotalAlloc - before.TotalAlloc,
	}
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// checkRegression compares events/sec per figure against the baseline.
// It returns the names of figures that regressed beyond maxRegress
// (e.g. 0.20 = fail below 80% of baseline throughput).
func checkRegression(base *Report, cur *Report, maxRegress float64) []string {
	baseline := make(map[string]FigureResult, len(base.Figures))
	for _, f := range base.Figures {
		baseline[f.Name] = f
	}
	var failed []string
	for _, f := range cur.Figures {
		b, ok := baseline[f.Name]
		if !ok || b.EventsPerSec <= 0 {
			continue
		}
		ratio := f.EventsPerSec / b.EventsPerSec
		fmt.Printf("  vs baseline %-5s %6.2fx  (%.0f -> %.0f events/sec)\n",
			f.Name, ratio, b.EventsPerSec, f.EventsPerSec)
		if ratio < 1-maxRegress {
			failed = append(failed, f.Name)
		}
	}
	return failed
}

// parseCounts parses the -scaling flag: a comma-separated list of
// positive worker counts, returned sorted ascending and deduplicated.
func parseCounts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		var w int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &w); err != nil || w < 1 {
			return nil, fmt.Errorf("bad -scaling entry %q (want positive integers)", part)
		}
		out = append(out, w)
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// clampWorkers caps every requested worker count at GOMAXPROCS and
// deduplicates: a small box measures the points it can express instead
// of skipping the study. The returned note ("" when nothing changed)
// is recorded in the report so clamping is never silent.
func clampWorkers(requested []int, maxProcs int) (measured []int, note string) {
	measured = make([]int, 0, len(requested))
	for _, w := range requested {
		measured = append(measured, min(w, maxProcs))
	}
	slices.Sort(measured)
	measured = slices.Compact(measured)
	if !slices.Equal(measured, requested) {
		note = fmt.Sprintf("worker counts clamped to GOMAXPROCS=%d: requested %v, measured %v", maxProcs, requested, measured)
	}
	return measured, note
}

// aggregateSpeedup computes the whole-suite speedup at the highest
// scaling worker count: total 1-worker wall time over total wall time at
// that count. Figures without both points are skipped. ok is false when
// nothing was measured.
func aggregateSpeedup(figs []FigureResult, maxW int) (speedup float64, ok bool) {
	var wall1, wallN float64
	for _, f := range figs {
		var w1, wN float64
		for _, p := range f.Scaling {
			if p.Workers == 1 {
				w1 = p.WallSeconds
			}
			if p.Workers == maxW {
				wN = p.WallSeconds
			}
		}
		if w1 > 0 && wN > 0 {
			wall1 += w1
			wallN += wN
		}
	}
	if wallN == 0 {
		return 0, false
	}
	return wall1 / wallN, true
}

func writeReport(rep *Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runMegaStudy is the -mega mode: one fig_mega arena on one sweep
// worker. Gates: -max-bytes-node on the retained-arena-per-node
// constant, and the usual -baseline/-max-regress on mega events/sec.
func runMegaStudy(rep *Report, nodes int, maxBytesNode float64, baselinePath string, maxRegress float64, journal *metrics.Journal, out string) int {
	fmt.Printf("mega arena study: %d nodes at Figure-1 density, GOMAXPROCS=%d\n",
		nodes, rep.GOMAXPROCS)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	experiments.ResetEventCount()
	//lint:ignore wallclock wall-time of a whole experiment run, measured outside the event loop
	start := time.Now()
	var retained uint64
	experiments.RunMega(experiments.MegaConfig{
		Ns: []int{nodes}, Workers: 1, Journal: journal,
		MemProbe: func(_ int, b uint64) { retained = b },
	})
	//lint:ignore wallclock closes the timing window opened above, after every kernel has drained
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	events := experiments.EventCount()
	m := &MegaResult{
		Nodes:         nodes,
		Events:        events,
		WallSeconds:   elapsed,
		EventsPerSec:  float64(events) / elapsed,
		RetainedBytes: retained,
		PeakHeapBytes: after.HeapSys - before.HeapSys,
	}
	m.BytesPerNode = float64(m.RetainedBytes) / float64(nodes)
	rep.Mega = m
	fmt.Printf("mega n=%-8d %12d events %8.2fs %12.0f events/sec %8.1f B/node retained %12d B peak heap\n",
		m.Nodes, m.Events, m.WallSeconds, m.EventsPerSec, m.BytesPerNode, m.PeakHeapBytes)

	gateFailed := false
	if maxBytesNode > 0 && m.BytesPerNode > maxBytesNode {
		fmt.Fprintf(os.Stderr, "simbench: mega retained arena %.1f bytes/node exceeds the %.0f bytes/node gate\n",
			m.BytesPerNode, maxBytesNode)
		gateFailed = true
	}
	if baselinePath != "" {
		base, err := loadReport(baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 2
		}
		if base.Mega != nil && base.Mega.EventsPerSec > 0 {
			ratio := m.EventsPerSec / base.Mega.EventsPerSec
			fmt.Printf("  vs baseline mega  %6.2fx  (%.0f -> %.0f events/sec, baseline n=%d)\n",
				ratio, base.Mega.EventsPerSec, m.EventsPerSec, base.Mega.Nodes)
			if ratio < 1-maxRegress {
				fmt.Fprintf(os.Stderr, "simbench: mega events/sec regression beyond %.0f%%\n", maxRegress*100)
				gateFailed = true
			}
		}
	}
	if out != "" {
		if err := writeReport(rep, out); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 2
		}
	}
	if journal != nil {
		if err := journal.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "simbench: journal:", err)
			return 1
		}
	}
	if gateFailed {
		return 1
	}
	return 0
}

// gitRev stamps journal records with the checkout's short commit hash;
// it returns "" outside a git checkout (the field is then omitted).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func main() {
	os.Exit(run())
}

// run is main with an exit code instead of os.Exit, so the profile and
// journal defers actually flush on every path.
func run() int {
	var (
		quick      = flag.Bool("quick", false, "run the CI subset (fig1, fig3, abl3)")
		out        = flag.String("out", "", "write the JSON report to this path")
		baseline   = flag.String("baseline", "", "baseline report to compare events/sec against")
		maxRegress = flag.Float64("max-regress", 0.20, "fail if events/sec drops by more than this fraction of baseline")
		workers    = flag.Int("workers", 0, "sweep worker count for every figure (0 = GOMAXPROCS)")
		scaling    = flag.String("scaling", "", "comma-separated worker counts for a per-figure scaling study, e.g. 1,2,4,8")
		minSpeedup = flag.Float64("min-speedup", 0, "fail if aggregate speedup at the highest -scaling worker count is below this (0 = no gate)")
		megaF      = flag.Bool("mega", false, "run the mega arena cost point instead of the figure suite")
		megaNodes  = flag.Int("mega-nodes", 1_000_000, "node count for the -mega arena")
		maxBytesN  = flag.Float64("max-bytes-node", 0, "fail if the -mega peak heap exceeds this many bytes per node (0 = no gate)")
		journalF   = flag.String("journal", "", "append a JSONL run journal to this file")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file at exit")
		traceF     = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	scalingWorkers, err := parseCounts(*scaling)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *traceF != "" {
		f, err := os.Create(*traceF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 2
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 2
		}
		defer trace.Stop()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "simbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "simbench:", err)
			}
		}()
	}

	var journal *metrics.Journal
	rev := ""
	if *journalF != "" {
		f, err := os.OpenFile(*journalF, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 2
		}
		defer f.Close()
		journal = metrics.NewJournal(f)
		rev = gitRev()
	}

	rep := Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
		Workers:    *workers,
	}
	if len(scalingWorkers) > 0 {
		rep.ScalingRequested = slices.Clone(scalingWorkers)
		scalingWorkers, rep.ScalingNote = clampWorkers(scalingWorkers, rep.GOMAXPROCS)
		rep.ScalingMeasured = slices.Clone(scalingWorkers)
		if rep.ScalingNote != "" {
			fmt.Println("scaling:", rep.ScalingNote)
		}
	}
	if *megaF {
		return runMegaStudy(&rep, *megaNodes, *maxBytesN, *baseline, *maxRegress, journal, *out)
	}
	// names pairs base-measurement figures with their scaling reruns:
	// the base pass measures at -workers, then each -scaling count
	// re-measures the same figure with only the worker count changed.
	for fi, f := range figures(journal, *workers) {
		if *quick && !f.quick {
			continue
		}
		r := measure(f)
		fmt.Printf("%-5s %12d events %8.2fs %12.0f events/sec %12d allocs %12d B\n",
			r.Name, r.Events, r.WallSeconds, r.EventsPerSec, r.Allocs, r.AllocBytes)
		for _, w := range scalingWorkers {
			// Journal off for scaling reruns: record cost, not bytes.
			sf := figures(nil, w)[fi]
			sr := measure(sf)
			p := ScalingPoint{
				Workers:      w,
				WallSeconds:  sr.WallSeconds,
				EventsPerSec: sr.EventsPerSec,
			}
			if sr.Events > 0 {
				p.AllocsPerEvent = float64(sr.Allocs) / float64(sr.Events)
			}
			if len(r.Scaling) > 0 && r.Scaling[0].Workers == 1 && r.Scaling[0].EventsPerSec > 0 {
				p.Speedup = p.EventsPerSec / r.Scaling[0].EventsPerSec
			} else if w == 1 {
				p.Speedup = 1
			}
			r.Scaling = append(r.Scaling, p)
			fmt.Printf("      scaling w=%-2d %8.2fs %12.0f events/sec %8.3f allocs/event %6.2fx\n",
				w, p.WallSeconds, p.EventsPerSec, p.AllocsPerEvent, p.Speedup)
		}
		rep.Figures = append(rep.Figures, r)
		rep.TotalEvents += r.Events
		rep.TotalWallSeconds += r.WallSeconds
		if journal != nil {
			// Environment stamps ride on the summary record; the
			// deterministic per-run records came from the Run funcs.
			_ = journal.Write(metrics.Record{
				Experiment:  f.name,
				Label:       "bench-summary",
				GitRev:      rev,
				GoVersion:   runtime.Version(),
				WallSeconds: r.WallSeconds,
			})
		}
	}
	if rep.TotalWallSeconds > 0 {
		rep.TotalEventsPerSec = float64(rep.TotalEvents) / rep.TotalWallSeconds
	}
	fmt.Printf("total %12d events %8.2fs %12.0f events/sec\n",
		rep.TotalEvents, rep.TotalWallSeconds, rep.TotalEventsPerSec)

	gateFailed := false
	if *minSpeedup > 0 && len(scalingWorkers) > 0 {
		maxW := scalingWorkers[len(scalingWorkers)-1]
		reqW := rep.ScalingRequested[len(rep.ScalingRequested)-1]
		if maxW < reqW {
			// The clamped list cannot express the worker count the gate
			// was calibrated for; record the skip, never fail silently.
			note := fmt.Sprintf("scaling gate skipped: requested %d workers, only %d measurable at GOMAXPROCS=%d",
				reqW, maxW, rep.GOMAXPROCS)
			rep.ScalingNote += "; " + note
			fmt.Println(note)
		} else if sp, ok := aggregateSpeedup(rep.Figures, maxW); !ok {
			fmt.Fprintln(os.Stderr, "simbench: -min-speedup set but no figure has both 1-worker and max-worker scaling points")
			gateFailed = true
		} else {
			fmt.Printf("aggregate speedup at %d workers: %.2fx (gate %.2fx)\n", maxW, sp, *minSpeedup)
			if sp < *minSpeedup {
				fmt.Fprintf(os.Stderr, "simbench: speedup %.2fx at %d workers below required %.2fx\n",
					sp, maxW, *minSpeedup)
				gateFailed = true
			}
		}
	}

	var failed []string
	if *baseline != "" {
		base, err := loadReport(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 2
		}
		rep.BenchmarkFig1 = base.BenchmarkFig1
		failed = checkRegression(base, &rep, *maxRegress)
	}

	if *out != "" {
		if err := writeReport(&rep, *out); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 2
		}
	}

	if journal != nil {
		if err := journal.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "simbench: journal:", err)
			return 1
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "simbench: events/sec regression beyond %.0f%% in: %v\n",
			*maxRegress*100, failed)
		return 1
	}
	if gateFailed {
		return 1
	}
	return 0
}
