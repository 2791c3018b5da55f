package sweep

import (
	"testing"

	"routeless/internal/flood"
	"routeless/internal/geo"
	"routeless/internal/node"
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
	nw.Install(func(n *node.Node) node.Protocol {
		return flood.New(&fcfg)
	})
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

// TestRaceHammerSharedQueue hammers the queue itself: cheap cells, many
// workers, forced stealing. Under -race this exercises claim()'s mutex
// discipline; the assertion is exactly-once execution.
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
