package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"routeless/internal/scenario"
)

// TestStudyCellsAreDocuments: every cell of every tiny-suite study —
// the ten grids and fig2's two runs — is a document that survives its
// JSON form. Marshalled and read back through scenario.Parse (strict
// decoding plus Validate), it is the value the study builds, so with
// the goldens this is what lets `wmansim -scenario`, simserve and
// snapshots replay any cell.
func TestStudyCellsAreDocuments(t *testing.T) {
	s := tinySuite()
	grids := []grid{
		fig1Grid(s.Fig1), fig3Grid(s.Fig34), fig4Grid(s.Fig34), abl1Grid(s.Fig1), abl2Grid(s.Fig34),
		abl4Grid(s.Fig34), abl5Grid(s.Fig34), abl6Grid(s.Fig34), churnGrid(s.Churn), megaGrid(s.Mega),
	}
	// Every study but fig2, added below, and abl3, which builds no network.
	if want := len(s.Studies()) - 2; len(grids) != want {
		t.Fatalf("%d grids under test, want %d", len(grids), want)
	}
	type cell struct {
		name string
		sc   scenario.Scenario
	}
	var cells []cell
	for _, g := range grids {
		for x := range g.xs {
			for v, variant := range g.variants {
				for _, seed := range g.seeds {
					cells = append(cells, cell{g.name + "/" + variant.name, g.spec(x, v, seed)})
				}
			}
		}
	}
	fig2 := s.Fig2.withDefaults()
	ends := fig2Endpoints(fig2)
	cells = append(cells, cell{"fig2/alone", fig2Spec(fig2, ends, false)}, cell{"fig2/cross", fig2Spec(fig2, ends, true)})

	for i, c := range cells {
		data, err := json.Marshal(c.sc)
		if err != nil {
			t.Fatalf("cell %d (%s): %v", i, c.name, err)
		}
		got, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("cell %d (%s): %v\n%s", i, c.name, err, data)
		}
		if !reflect.DeepEqual(got, c.sc) {
			t.Fatalf("cell %d (%s) does not survive its document:\n got %+v\nwant %+v", i, c.name, got, c.sc)
		}
	}
}
