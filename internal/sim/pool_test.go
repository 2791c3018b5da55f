package sim

import (
	"testing"
	"unsafe"
)

// runCell simulates one sweep cell on the pool: depth concurrently
// pending timers, rearmed rounds times, then full drain — the event
// lifecycle shape of a simulation run.
func runCell(t *testing.T, pool *EventPool, depth, rounds int) {
	t.Helper()
	k := NewKernelPooled(pool)
	var fired int
	for r := 0; r < rounds; r++ {
		for i := 0; i < depth; i++ {
			k.At(Time(r)+Time(i)*1e-6, func() { fired++ })
		}
		k.RunUntil(Time(r) + 1)
	}
	if fired != depth*rounds {
		t.Fatalf("fired %d, want %d", fired, depth*rounds)
	}
}

// TestEventPoolShrinksToWatermark is the regression test for the
// sweep-reuse memory leak: before Reset existed, a pooled Runtime that
// served one large cell pinned that cell's free list for every later
// (smaller) cell of the sweep.
func TestEventPoolShrinksToWatermark(t *testing.T) {
	pool := NewEventPool()

	runCell(t, pool, 5000, 3)
	if pool.Peak() < 5000 {
		t.Fatalf("peak %d after a 5000-deep cell", pool.Peak())
	}
	bigFree := pool.FreeLen()
	if bigFree < 1000 {
		t.Fatalf("free list %d did not warm up on the big cell", bigFree)
	}
	pool.Reset()
	if pool.Peak() != 0 {
		t.Fatalf("peak %d after Reset, want 0", pool.Peak())
	}

	// A small cell must shrink the pool to its own watermark on the
	// next Reset, not inherit the big cell's footprint.
	runCell(t, pool, 20, 3)
	pool.Reset()
	if got := pool.FreeLen(); got > 20 {
		t.Fatalf("free list %d after a 20-deep cell's Reset, want <= 20", got)
	}
	if cap := capOf(pool); cap > 2*20+64 {
		t.Fatalf("free list capacity %d still pins the big cell's backing array", cap)
	}

	// The shrunken pool still serves a big cell again (regrowth works).
	runCell(t, pool, 5000, 1)
}

// TestEventPoolResetKeepsWatermark pins the other half of the
// contract: Reset retains (up to) the last workload's peak, so a sweep
// of equal-size cells keeps its steady-state reuse.
func TestEventPoolResetKeepsWatermark(t *testing.T) {
	pool := NewEventPool()
	runCell(t, pool, 400, 2)
	free := pool.FreeLen()
	pool.Reset()
	if got := pool.FreeLen(); got != min(free, 400) {
		t.Fatalf("Reset kept %d spares, want min(free=%d, peak=400)", got, free)
	}
	// Identical follow-up cell allocates (almost) nothing new.
	before := pool.FreeLen()
	runCell(t, pool, 400, 2)
	if before == 0 {
		t.Fatal("no spares retained for the follow-up cell")
	}
}

// TestEventPoolOwnsItsCacheLines pins the pool's padding: at exactly
// 128 bytes it is its own allocation size class, so two pools
// allocated back to back (one per sweep worker) never share a line.
func TestEventPoolOwnsItsCacheLines(t *testing.T) {
	if got := unsafe.Sizeof(EventPool{}); got != 128 {
		t.Fatalf("EventPool is %d bytes, want 128", got)
	}
}

// TestKernelSize pins the kernel at 96 bytes: the clock, counters,
// heap and pool, the cursor register (a heap slot: key and event) and
// the two flags of a cursor callback, and no random stream. Step writes
// it on every event.
func TestKernelSize(t *testing.T) {
	if got := unsafe.Sizeof(Kernel{}); got != 96 {
		t.Fatalf("Kernel is %d bytes, want 96", got)
	}
}

func capOf(p *EventPool) int { return cap(p.free) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
