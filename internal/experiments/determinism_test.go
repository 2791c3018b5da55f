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
		Workers: 4, // exercise the parallel sweep path, not just serial
	}
}

func TestFig1SameSeedBitwiseIdentical(t *testing.T) {
	cfg := tinyFig1()
	a := RunFig1(cfg)
	b := RunFig1(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\nrun1: %+v\nrun2: %+v", a, b)
	}
}

func TestFig1DifferentSeedDiverges(t *testing.T) {
	cfg := tinyFig1()
	a := RunFig1(cfg)
	cfg.Seeds = []int64{2}
	c := RunFig1(cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("seed 1 and seed 2 produced identical metrics %+v; the seed is not reaching the simulation", a)
	}
}

// Serial and parallel sweeps must print the same table: workers change
// wall time, never results.
func TestFig1WorkerCountInvariant(t *testing.T) {
	serial := tinyFig1()
	serial.Workers = 1
	pooled := tinyFig1()
	pooled.Workers = 8
	a := RunFig1(serial)
	b := RunFig1(pooled)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("worker count changed results:\nserial: %+v\npooled: %+v", a, b)
	}
}

// A study's event total is a value its rows return, folded in cell
// order: non-zero, the same at any worker count, and — unlike a
// package-level accumulator — untouched by another study running in
// the same process at the same time.
func TestEventTotalsAreReturnedValues(t *testing.T) {
	fig1Events := func(cfg Fig1Config) (total uint64) {
		for _, r := range RunFig1(cfg) {
			total += r.Events
		}
		return total
	}
	megaEvents := func(cfg MegaConfig) (total uint64) {
		for _, r := range RunMega(cfg) {
			total += r.Events
		}
		return total
	}
	fig1, mega := tinyFig1(), tinyMega()
	fig1.Workers, mega.Workers = 1, 1
	f1, m1 := fig1Events(fig1), megaEvents(mega)
	fig1.Workers, mega.Workers = 8, 8
	f8, m8 := fig1Events(fig1), megaEvents(mega)
	if f1 == 0 || f1 != f8 {
		t.Errorf("fig1 events: %d at 1 worker, %d at 8; want equal and non-zero", f1, f8)
	}
	if m1 == 0 || m1 != m8 {
		t.Errorf("mega events: %d at 1 worker, %d at 8; want equal and non-zero", m1, m8)
	}

	other := tinyFig1()
	other.Seeds = []int64{2}
	wantOther := fig1Events(other)
	if wantOther == f1 {
		t.Fatalf("seeds 1 and 2 both ran %d events; the concurrent check below would prove nothing", f1)
	}
	cfgs := []Fig1Config{fig1, other}
	got := sweep.Run(2, sweep.Cells("events", len(cfgs), []int64{0}), func(_ *sweep.Context, i int, _ sweep.Cell) uint64 {
		return fig1Events(cfgs[i])
	})
	if got[0] != f1 || got[1] != wantOther {
		t.Errorf("concurrent RunFig1 totals = %v, want %d and %d", got, f1, wantOther)
	}
}
