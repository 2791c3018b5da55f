package experiments

import (
	//lint:ignore goroutine event counting is a commutative sum across trials; uint64 addition is order-independent, so the total is deterministic even though trial completion order is not
	"sync/atomic"
)

// processed accumulates the kernel event counts of every run executed
// by this package since the last ResetEventCount. Trials of one figure
// run concurrently (internal/sweep), so the accumulator is atomic;
// because addition commutes, the total does not depend on completion
// order and stays deterministic. cmd/simbench divides this by wall
// time to report events/sec, the kernel's headline throughput number.
var processed atomic.Uint64

// ResetEventCount zeroes the package-wide event counter.
func ResetEventCount() { processed.Store(0) }

// EventCount returns the number of kernel events executed by runs in
// this package since the last ResetEventCount.
func EventCount() uint64 { return processed.Load() }
