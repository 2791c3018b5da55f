package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	}
}

func tinyTablesCSV() string {
	fig1, fig34 := tinyFig1(), tinyFig34()
	var b strings.Builder
	b.WriteString(Fig1Table(RunFig1(fig1)).CSV())
	b.WriteString(Fig2Table(RunFig2(Fig2Config{Seed: 1, Nodes: 150, Terrain: 1060, Duration: 8})).CSV())
	b.WriteString(Fig3Table(RunFig3(fig34)).CSV())
	b.WriteString(Fig4Table(RunFig4(fig34)).CSV())
	b.WriteString(Abl1Table(RunAbl1(fig1)).CSV())
	b.WriteString(Abl2Table(RunAbl2(fig34, []sim.Time{5e-3, 50e-3}, 3)).CSV())
	b.WriteString(Abl3Table(RunAbl3(0, []int{2, 10}, 20, 10e-3, 1)).CSV())
	b.WriteString(Abl4Table(RunAbl4(fig34)).CSV())
	b.WriteString(Abl5Table(RunAbl5(fig34, []float64{0, 0.3}, 3)).CSV())
	b.WriteString(Abl6Table(RunAbl6(fig34)).CSV())
	b.WriteString(ChurnTable(RunChurn(tinyChurn())).CSV())
	return b.String()
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
