package sweep

import (
	"runtime"
	"sync/atomic"
	"testing"

	"routeless/internal/sim"
)

// TestKernelYieldsProcessor pins sim.Kernel's cooperative yield from
// the side that needs it: with a Pool worker's event loop holding the
// only processor, a goroutine that became runnable — a run server's
// HTTP handler — must get to run within about sim's yield interval of
// 1024 events, not at the runtime's 10 ms preemption tick tens of
// thousands of events later.
func TestKernelYieldsProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const yieldEvery = 1024
	var sawAt uint64
	p := NewPool(1)
	p.Submit(func(*Context) {
		k := sim.NewKernel(1)
		var ran atomic.Bool
		var tick func()
		tick = func() {
			if sawAt == 0 && ran.Load() {
				sawAt = k.Processed()
			}
			if k.Processed() < 64*yieldEvery {
				k.Schedule(1e-6, tick)
			}
		}
		k.Schedule(0, tick)
		go ran.Store(true)
		k.Run()
	})
	p.Close()
	if sawAt == 0 || sawAt > 2*yieldEvery {
		t.Fatalf("waiting goroutine first ran after %d events (0 = never), want within %d", sawAt, 2*yieldEvery)
	}
}
