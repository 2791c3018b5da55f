package experiments

import (
	"reflect"
	"testing"

	"routeless/internal/sweep"
)

// The runtime counterpart of cmd/simlint's static checks: the paper's
// tables are only trustworthy if a seed pins down every election,
// flood, and delay bit-for-bit. Exact float comparison is the point
// here — "almost the same" results mean nondeterminism crept in.

func tinyFig1() Fig1Config {
	return Fig1Config{
		Nodes: 30, Terrain: 565, Connections: 8,
		Intervals: []float64{2},
		Duration:  5, Seeds: []int64{1},
	}
}

// tinyWorkers exercises the parallel sweep path, not just serial.
const tinyWorkers = 4

// gridRun is one grid run's whole output, for exact comparison.
type gridRun struct {
	Aggs   [][]Agg
	Events []uint64
}

func runGrid(g grid, workers int) gridRun {
	aggs, events := g.run(workers, nil)
	return gridRun{aggs, events}
}

func TestFig1SameSeedBitwiseIdentical(t *testing.T) {
	g := fig1Grid(tinyFig1())
	a := runGrid(g, tinyWorkers)
	b := runGrid(g, tinyWorkers)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\nrun1: %+v\nrun2: %+v", a, b)
	}
}

func TestFig1DifferentSeedDiverges(t *testing.T) {
	cfg := tinyFig1()
	a := runGrid(fig1Grid(cfg), tinyWorkers)
	cfg.Seeds = []int64{2}
	c := runGrid(fig1Grid(cfg), tinyWorkers)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("seed 1 and seed 2 produced identical metrics %+v; the seed is not reaching the simulation", a)
	}
}

// Serial and parallel sweeps must print the same table: workers change
// wall time, never results.
func TestFig1WorkerCountInvariant(t *testing.T) {
	g := fig1Grid(tinyFig1())
	a := runGrid(g, 1)
	b := runGrid(g, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("worker count changed results:\nserial: %+v\npooled: %+v", a, b)
	}
}

// A study's event total is a value its run returns, folded in cell
// order: non-zero, the same at any worker count, and — unlike a
// package-level accumulator — untouched by another study running in
// the same process at the same time.
func TestEventTotalsAreReturnedValues(t *testing.T) {
	events := func(g grid, workers int) uint64 {
		return g.study().Run(workers, nil).Events
	}
	fig1, mega := fig1Grid(tinyFig1()), megaGrid(tinyMega())
	f1, m1 := events(fig1, 1), events(mega, 1)
	f8, m8 := events(fig1, 8), events(mega, 8)
	if f1 == 0 || f1 != f8 {
		t.Errorf("fig1 events: %d at 1 worker, %d at 8; want equal and non-zero", f1, f8)
	}
	if m1 == 0 || m1 != m8 {
		t.Errorf("mega events: %d at 1 worker, %d at 8; want equal and non-zero", m1, m8)
	}
	ran := 0
	for _, st := range tinySuite().Studies() {
		if st.Name != "abl3" && st.Name != "fig2" {
			continue
		}
		ran++
		if e1, e8 := st.Run(1, nil).Events, st.Run(8, nil).Events; e1 == 0 || e1 != e8 {
			t.Errorf("%s events: %d at 1 worker, %d at 8; want equal and non-zero", st.Name, e1, e8)
		}
	}
	if ran != 2 {
		t.Fatalf("checked %d of the studies abl3 and fig2", ran)
	}

	other := tinyFig1()
	other.Seeds = []int64{2}
	wantOther := events(fig1Grid(other), tinyWorkers)
	if wantOther == f1 {
		t.Fatalf("seeds 1 and 2 both ran %d events; the concurrent check below would prove nothing", f1)
	}
	grids := []grid{fig1, fig1Grid(other)}
	got := sweep.Run(2, sweep.Cells("events", len(grids), []int64{0}), func(_ *sweep.Context, i int, _ sweep.Cell) uint64 {
		return events(grids[i], tinyWorkers)
	})
	if got[0] != f1 || got[1] != wantOther {
		t.Errorf("concurrent fig1 totals = %v, want %d and %d", got, f1, wantOther)
	}
}
