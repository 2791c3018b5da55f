// Package sweep is the deterministic multicore experiment engine.
// Every experiment flattens into a flat list of cells — one
// (figure, parameter point, replication) triple each — and Run hands the
// cells, in list order, to a Pool, the one worker pool in the module
// (the run server uses it too), merging results back in fixed cell
// order. Because each cell derives all of its randomness from its own
// seed, and because results land at the cell's index, the output — and
// therefore every CSV table, metrics snapshot, and JSONL journal built
// from it — is byte-identical for any worker count, including 1.
//
// Each worker owns a reusable run context (Context): a kernel event
// free list, the phy transmission pool and radio arena, and a
// cross-model range cache, threaded into networks via
// node.Config.Runtime. Shared caches are therefore never touched
// concurrently, and steady-state
// allocations per cell drop as a worker's pools warm up instead of
// multiplying with cores. The simlint `sharedcap` rule enforces the
// ownership discipline at the boundary: cell functions must not capture
// shared mutable state — anything reusable comes in through the
// Context.
package sweep

import (
	"runtime"

	"routeless/internal/node"
)

// Cell is one unit of sweep work: one replication of one parameter
// point of one figure. Point is an index into the experiment's
// flattened x-axis (experiments fold variant axes — protocol, SSAF
// on/off — into the point index); Rep is the replication index and
// Seed the replication's master seed.
type Cell struct {
	Figure string
	Point  int
	Rep    int
	Seed   int64
}

// Cells enumerates the canonical flat cell list for one figure:
// point-major, replication-minor, one cell per (point, seed) pair.
// Merge loops iterate the same list in the same order, which is what
// pins journal bytes and aggregate fold order regardless of how the
// cells were scheduled.
func Cells(figure string, points int, seeds []int64) []Cell {
	out := make([]Cell, 0, points*len(seeds))
	for p := 0; p < points; p++ {
		for r, s := range seeds {
			out = append(out, Cell{Figure: figure, Point: p, Rep: r, Seed: s})
		}
	}
	return out
}

// Context is one worker's reusable run context. Exactly one worker
// goroutine owns a Context for the duration of a sweep; cell functions
// receive it and must thread Runtime() into node.Config (and nowhere
// else) so every pooled object stays worker-private.
type Context struct {
	worker int
	rt     *node.Runtime
}

// Worker returns the owning worker's index in [0, workers).
func (c *Context) Worker() int { return c.worker }

// Runtime returns the worker's reusable allocation state for
// node.Config.Runtime. The engine never resets it: the run assembler
// (scenario.BuildWith) does, once, before each build — a second reset
// between runs would read a zero watermark and empty the free lists.
func (c *Context) Runtime() *node.Runtime { return c.rt }

// workersFor clamps a requested worker count against n cells: 0 (or
// negative) means GOMAXPROCS, and the result never exceeds n nor drops
// below 1.
func workersFor(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// Run executes fn once per cell on a Pool of workersFor(workers,
// len(cells)) workers and returns the results indexed exactly like
// cells. Cells are submitted in list order. fn must derive everything
// from (ctx, cell): captured shared mutable state is a determinism bug
// (and a sharedcap lint finding). A panic inside fn does not stop the
// sweep: every other cell still runs, then the panic of the
// lowest-indexed failing cell is re-raised on the caller's goroutine —
// the same cell, and the same set of cells run, at any worker count.
func Run[T any](workers int, cells []Cell, fn func(ctx *Context, i int, c Cell) T) []T {
	n := len(cells)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	failed := make([]any, n)
	p := NewPool(workersFor(workers, n))
	for i, c := range cells {
		p.Submit(func(ctx *Context) {
			defer func() { failed[i] = recover() }()
			out[i] = fn(ctx, i, c)
		})
	}
	p.Close()
	for _, r := range failed {
		if r != nil {
			panic(r)
		}
	}
	return out
}
