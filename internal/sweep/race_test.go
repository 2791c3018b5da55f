package sweep

import (
	"sync"
	"testing"

	"routeless/internal/flood"
	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/rng"
	"routeless/internal/sim"
	"routeless/internal/traffic"
)

// raceCell builds a tiny network through the worker's Runtime, floods a
// few packets, and folds the outcome into a comparable fingerprint. It
// is deliberately hostile to the engine: every cell exercises the
// pooled event free list, phy pools, and shared range cache that a
// buggy engine would share across workers.
func raceCell(ctx *Context, i int, c Cell) uint64 {
	nw := node.Must(node.New(node.Config{
		N:               10,
		Rect:            geo.NewRect(400, 400),
		Range:           250,
		Seed:            c.Seed + int64(c.Point)*1000,
		EnsureConnected: true,
		Runtime:         ctx.Runtime(),
	}))
	fcfg := flood.Counter1Config(10e-3)
	flood.Install(nw, fcfg)
	cbr := traffic.NewCBR(nw.Nodes[0], nw.Nodes[len(nw.Nodes)-1].ID, sim.Time(0.25), 32)
	cbr.Start()
	nw.Run(1.0)
	cbr.Stop()
	nw.Run(2.0)
	if err := nw.CheckInvariants(); err != nil {
		panic(err)
	}
	return nw.MACPackets()*1_000_003 + nw.Kernel.Processed()
}

// TestRaceHammer runs many hostile cells under -race at high worker
// counts and checks the merged results are identical to a serial run.
// Under the race detector this catches any accidental sharing of pooled
// state between workers; without -race it still verifies determinism.
func TestRaceHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("race hammer is slow under -race")
	}
	cells := Cells("hammer", 4, []int64{1, 2, 3, 4})
	serial := Run(1, cells, raceCell)
	for _, workers := range []int{2, 8} {
		got := Run(workers, cells, raceCell)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: cell %d fingerprint %d != serial %d",
					workers, i, got[i], serial[i])
			}
		}
	}
}

// TestRaceHammerSharedQueue hammers the pool's job channel: cheap cells,
// many workers, so hand-offs dominate. Under -race this exercises the
// channel and the Close barrier; the assertion is exactly-once
// execution.
func TestRaceHammerSharedQueue(t *testing.T) {
	const n = 2000
	cells := Cells("q", n, []int64{0})
	counts := make([]int32, n)
	Run(16, cells, func(ctx *Context, i int, c Cell) struct{} {
		counts[i]++ // safe: each index is visited exactly once
		return struct{}{}
	})
	for i, ct := range counts {
		if ct != 1 {
			t.Fatalf("cell %d ran %d times", i, ct)
		}
	}
}

// point is a stand-in for one parameter point: a deterministic
// rng-driven computation heavy enough to interleave workers.
func point(seed int64, i int) float64 {
	r := rng.ForNode(seed, rng.StreamTraffic, i)
	sum := 0.0
	for k := 0; k < 200; k++ {
		sum += r.Float64()
	}
	return sum
}

// Many sweeps at once, the way a batch of experiment drivers in one
// process would run them: each has its own pool and must match the
// serial reference.
func TestMapHammerConcurrentSweeps(t *testing.T) {
	const (
		drivers = 8  // concurrent "experiment harnesses"
		points  = 64 // parameter points per sweep
		workers = 4  // Run workers per sweep
	)
	want := make([]float64, points)
	for i := range want {
		want[i] = point(1, i)
	}

	var wg sync.WaitGroup
	errs := make(chan string, drivers)
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := mapN(workers, points, func(i int) float64 { return point(1, i) })
			for i := range got {
				if got[i] != want[i] {
					errs <- "concurrent sweep diverged from serial reference"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// Nested use: a sweep whose per-point function itself fans out, as a
// figure harness running per-seed replications inside per-interval
// points would.
func TestMapHammerNested(t *testing.T) {
	outer := mapN(4, 16, func(i int) []float64 {
		return mapN(3, 8, func(j int) float64 { return point(int64(i+1), j) })
	})
	for i, inner := range outer {
		for j, v := range inner {
			if v != point(int64(i+1), j) {
				t.Fatalf("outer %d inner %d diverged", i, j)
			}
		}
	}
}

// Cells writing disjoint indices from many workers must be clean under
// -race and leave every slot filled exactly once.
func TestForEachHammerDisjointWrites(t *testing.T) {
	const n = 512
	hits := make([]int, n)
	mapN(8, n, func(i int) struct{} { hits[i]++; return struct{}{} })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d written %d times", i, h)
		}
	}
}
