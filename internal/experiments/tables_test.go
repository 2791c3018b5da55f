package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"routeless/internal/metrics"
	"routeless/internal/sim"
)

// The journal goldens pin fig1, churn and fig_mega; the tables golden
// pins everything else the CLI prints — fig1–4, abl1–6 and churn as
// CSV at a scale that runs in seconds. A byte of drift here means some
// figure's run wiring (network, protocol, flows, faults, their order)
// changed.

func tinyFig34() Fig34Config {
	return Fig34Config{
		Nodes: 100, Terrain: 900, Duration: 8,
		Pairs: []int{2, 4}, Seeds: []int64{1},
		FailurePcts: []float64{0, 0.10}, Fig4Pairs: 3,
		Lambdas: []sim.Time{5e-3, 50e-3}, SleepFractions: []float64{0, 0.3}, AblPairs: 3,
	}
}

func tinySuite() Suite {
	return Suite{
		Fig1:  tinyFig1(),
		Fig2:  Fig2Config{Seed: 1, Nodes: 150, Terrain: 1060, Duration: 8},
		Fig34: tinyFig34(),
		Abl3:  Abl3Config{Sizes: []int{2, 10}, Trials: 20, Seed: 1},
		Churn: tinyChurn(),
		Mega:  tinyMega(),
	}
}

// tinyTablesCSV is every study's CSV but mega's — the studies the
// CLI's -exp all prints.
func tinyTablesCSV() string {
	var b strings.Builder
	for _, st := range tinySuite().Studies() {
		if st.Name != "mega" {
			b.WriteString(st.Run(0, nil).Table.CSV())
		}
	}
	return b.String()
}

// TestStudiesWorkerCountInvariant runs the studies of the tiny suite
// that no worker-count test of their own covers — fig2, fig3, fig4 and
// the ablations — at 1 and 8 workers: the journal and table bytes must
// not move, and each grid cell must write exactly one record, its label
// unique among the records of its seed.
func TestStudiesWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s := tinySuite()
	grids := []grid{
		fig3Grid(s.Fig34), fig4Grid(s.Fig34), abl1Grid(s.Fig1), abl2Grid(s.Fig34),
		abl4Grid(s.Fig34), abl5Grid(s.Fig34), abl6Grid(s.Fig34),
	}
	// fig2 and abl3 are not grids and journal no cells.
	var others []Study
	for _, st := range s.Studies() {
		if st.Name == "fig2" || st.Name == "abl3" {
			others = append(others, st)
		}
	}
	// All but fig1, churn and fig_mega (their own
	// *JournalWorkerCountInvariant tests).
	if want := len(s.Studies()) - 3; len(grids)+len(others) != want {
		t.Fatalf("%d grids and %d other studies under test, want %d", len(grids), len(others), want)
	}
	run := func(st Study, workers int) ([]byte, string) {
		var buf bytes.Buffer
		j := metrics.NewJournal(&buf)
		res := st.Run(workers, j)
		if err := j.Err(); err != nil {
			t.Fatalf("%s: journal write failed: %v", st.Name, err)
		}
		return buf.Bytes(), res.Table.CSV()
	}
	invariant := func(st Study) []byte {
		j1, csv1 := run(st, 1)
		j8, csv8 := run(st, 8)
		if !bytes.Equal(j1, j8) {
			t.Errorf("%s: worker count changed journal bytes", st.Name)
		}
		if csv1 != csv8 {
			t.Errorf("%s: worker count changed table CSV:\nworkers=1:\n%s\nworkers=8:\n%s", st.Name, csv1, csv8)
		}
		return j1
	}
	for _, st := range others {
		if j := invariant(st); len(j) != 0 {
			t.Errorf("%s: journaled %d bytes, want none", st.Name, len(j))
		}
	}
	for _, g := range grids {
		j1 := invariant(g.study())
		lines := bytes.Split(bytes.TrimSuffix(j1, []byte("\n")), []byte("\n"))
		if want := len(g.xs) * len(g.variants) * len(g.seeds); len(lines) != want {
			t.Errorf("%s: %d journal records, want one per cell (%d)", g.name, len(lines), want)
		}
		seen := map[string]bool{}
		for _, line := range lines {
			var r metrics.Record
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
			key := fmt.Sprint(r.Seed, " ", r.Label)
			if r.Experiment != g.name || r.Metrics == nil || seen[key] {
				t.Errorf("%s: record %q seed %d: experiment %q, metrics %v, label seen before: %v",
					g.name, r.Label, r.Seed, r.Experiment, r.Metrics != nil, seen[key])
			}
			seen[key] = true
		}
	}
}

func TestTablesTinyMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	got := tinyTablesCSV()
	golden := filepath.Join("testdata", "tables_tiny.csv")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("tables drifted from golden at line %d:\ngot:  %s\nwant: %s\n(rerun with -update-golden if the change is intentional)", i+1, g, w)
		}
	}
}
