// Command wmansim reproduces the paper's evaluation. Each experiment
// prints the series the corresponding figure plots, as an aligned table
// or CSV.
//
// Usage:
//
//	wmansim -exp fig1            # Figure 1 (SSAF vs counter-1 flooding)
//	wmansim -exp fig2            # Figure 2 (congestion avoidance, + map)
//	wmansim -exp fig3            # Figure 3 (Routeless vs AODV)
//	wmansim -exp fig4            # Figure 4 (… under node failures)
//	wmansim -exp abl1|abl2|abl3|abl4|abl5|abl6
//	wmansim -exp churn           # fault-plane churn study
//	wmansim -exp mega            # million-node arena ladder (SSAF at Figure-1 density)
//	wmansim -mega                # shorthand: the single N=1,000,000 mega run
//	wmansim -exp all             # every figure except mega (it is a scale proof, not a figure)
//
// Scale selection:
//
//	-scale full    paper scale (500 nodes / 2000 m for routing; slow)
//	-scale small   reduced scale with the same density (default)
//
// Other flags: -seeds N (replications, at least 1), -duration S,
// -workers N, -csv (machine-readable output), -journal F (append a
// JSONL run journal: one metric-snapshot record per cell of every grid
// study — all but fig2 and abl3 — plus one summary record per
// experiment with the table CSV, git revision, and wall time).
//
// Unified scenario documents (the same format simserve accepts):
//
//	wmansim -scenario run.json -journal run.jsonl     # run one document
//	wmansim -scenario run.json -snapshot-at 5 -snapshot-out run.snap
//	wmansim -restore run.snap -journal tail.jsonl     # resume a checkpoint
//
// A -scenario run's journal bytes equal what simserve streams for the
// same document, and a -restore run appends exactly the records past
// the checkpoint — concatenating prefix and suffix reproduces the
// uninterrupted journal byte for byte.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"routeless/internal/experiments"
	"routeless/internal/metrics"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/snapshot"
)

// gitRev stamps journal records with the checkout's short commit hash;
// it returns "" outside a git checkout (the field is then omitted).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// mapWidth is the width in characters of fig2's ASCII maps.
const mapWidth = 76

func main() {
	os.Exit(run(os.Args[1:]))
}

// runScenario is the unified-document entry point: build a run from a
// scenario JSON file (or restore one from a snapshot document), journal
// it through the same code path simserve streams, and either checkpoint
// mid-flight or finish and print the paper-unit metrics as JSON. The
// journal bytes a finished -scenario run appends are identical to what
// simserve streams for the same document.
func runScenario(scenarioPath, restorePath string, snapAt float64, snapOut string, journal *metrics.Journal) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "wmansim:", err)
		return 2
	}
	var run *scenario.Run
	switch {
	case restorePath != "":
		f, err := os.Open(restorePath)
		if err != nil {
			return fail(err)
		}
		run, err = snapshot.Load(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
	default:
		data, err := os.ReadFile(scenarioPath)
		if err != nil {
			return fail(err)
		}
		sc, err := scenario.Parse(data)
		if err != nil {
			return fail(err)
		}
		run, err = scenario.Build(sc)
		if err != nil {
			return fail(err)
		}
	}
	run.SetJournal(journal)

	if snapAt > 0 || snapOut != "" {
		if snapOut == "" || !(snapAt > 0) {
			return fail(fmt.Errorf("-snapshot-at and -snapshot-out must be used together"))
		}
		if err := run.AdvanceTo(sim.Time(snapAt)); err != nil {
			return fail(err)
		}
		f, err := os.Create(snapOut)
		if err != nil {
			return fail(err)
		}
		if err := snapshot.Save(f, run); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Printf("snapshot at t=%g written to %s\n", snapAt, snapOut)
		return 0
	}

	rm, ferr := run.Finish()
	out, err := json.Marshal(rm)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	if ferr != nil {
		fmt.Fprintln(os.Stderr, "wmansim: oracle:", ferr)
		return 1
	}
	return 0
}

func run(args []string) int {
	var names []string
	for _, st := range (experiments.Suite{}).Studies() {
		names = append(names, st.Name)
	}
	fs := flag.NewFlagSet("wmansim", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: "+strings.Join(names, "|")+"|all (every study but mega)")
		mega     = fs.Bool("mega", false, "shorthand for -exp mega at N=1,000,000 only")
		scale    = fs.String("scale", "small", "full (paper scale) or small (same density, faster)")
		seeds    = fs.Int("seeds", 3, "independent replications per point")
		duration = fs.Float64("duration", 0, "traffic seconds per run (0 = scale default)")
		workers  = fs.Int("workers", 0, "parallel runs (0 = GOMAXPROCS)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		journalF = fs.String("journal", "", "append a JSONL run journal to this file")

		scenarioF = fs.String("scenario", "", "run a single scenario document (JSON file) instead of an experiment")
		restoreF  = fs.String("restore", "", "resume a run from this snapshot document instead of building -scenario")
		snapAt    = fs.Float64("snapshot-at", 0, "with -scenario/-restore: pause at this sim time, write -snapshot-out, and exit")
		snapOut   = fs.String("snapshot-out", "", "snapshot output file for -snapshot-at")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *mega {
		*exp = "mega"
	}

	var journal *metrics.Journal
	if *journalF != "" {
		f, err := os.OpenFile(*journalF, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wmansim:", err)
			return 2
		}
		defer f.Close()
		journal = metrics.NewJournal(f)
	}

	if *scenarioF != "" || *restoreF != "" {
		return runScenario(*scenarioF, *restoreF, *snapAt, *snapOut, journal)
	}

	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "-seeds must be at least 1, got %d\n", *seeds)
		return 2
	}
	if !(*duration >= 0) || math.IsInf(*duration, 1) {
		fmt.Fprintf(os.Stderr, "-duration must be a finite number of seconds, at least 0, got %v\n", *duration)
		return 2
	}
	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}

	full := *scale == "full"
	if !full && *scale != "small" {
		fmt.Fprintf(os.Stderr, "unknown -scale %q\n", *scale)
		return 2
	}

	suite := experiments.Suite{
		Fig1:  experiments.Fig1Config{Seeds: seedList, Duration: *duration},
		Fig2:  experiments.Fig2Config{Seed: seedList[0]},
		Fig34: experiments.Fig34Config{Seeds: seedList, Duration: *duration},
		Abl3:  experiments.Abl3Config{Seed: seedList[0]},
		Churn: experiments.ChurnConfig{Seeds: seedList, Duration: *duration},
		// Mega replications default to one — each x-axis point is a
		// whole arena, not a noisy sample.
		Mega: experiments.MegaConfig{Seeds: seedList[:1], Duration: *duration},
	}
	if *mega {
		suite.Mega.Ns = []int{1_000_000}
	} else if full {
		suite.Mega.Ns = []int{10_000, 100_000, 1_000_000}
	} else {
		suite.Mega.Ns = []int{1_000, 10_000, 100_000}
	}
	if !full {
		// Same node density as the paper, quarter the area.
		fig1, fig34, fig2, churn := &suite.Fig1, &suite.Fig34, &suite.Fig2, &suite.Churn
		fig1.Nodes, fig1.Terrain = 60, 800
		fig1.Connections = 20
		fig34.Nodes, fig34.Terrain = 200, 1265
		if fig34.Duration == 0 {
			fig34.Duration = 30
		}
		if fig1.Duration == 0 {
			fig1.Duration = 20
		}
		fig2.Nodes, fig2.Terrain = 300, 1500
		fig2.Duration = 30
		churn.Nodes, churn.Terrain = 150, 1100
		if churn.Duration == 0 {
			churn.Duration = 20
		}
	}

	rev := ""
	if journal != nil {
		rev = gitRev()
	}

	ran := false
	for _, st := range suite.Studies() {
		if st.Name != *exp && (*exp != "all" || st.Name == "mega") {
			continue
		}
		ran = true
		//lint:ignore wallclock wall-time of a whole experiment, measured outside the event loop
		start := time.Now()
		res := st.Run(*workers, journal)
		if *csv {
			fmt.Print(res.Table.CSV())
		} else {
			fmt.Println(res.Table)
			if res.Fig2 != nil {
				fmt.Println(experiments.Fig2Render(*res.Fig2, mapWidth))
			}
		}
		if journal != nil {
			// The summary record carries the environment stamps; the
			// deterministic per-cell records were written by the study.
			_ = journal.Write(metrics.Record{
				Experiment: st.Name,
				Label:      "summary",
				TableCSV:   res.Table.CSV(),
				GitRev:     rev,
				GoVersion:  runtime.Version(),
				//lint:ignore wallclock environment stamp on the journal, excluded from golden comparisons
				WallSeconds: time.Since(start).Seconds(),
			})
		}
		if !*csv {
			//lint:ignore wallclock reports elapsed wall time after the run's kernel has drained
			wall := time.Since(start)
			fmt.Printf("[%s done in %v", st.Name, wall.Round(time.Millisecond))
			if res.Events > 0 {
				fmt.Printf(", %d events, %.0f events/sec", res.Events, float64(res.Events)/wall.Seconds())
			}
			fmt.Print("]\n\n")
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		return 2
	}
	if journal != nil {
		if err := journal.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "wmansim: journal:", err)
			return 1
		}
	}
	return 0
}
