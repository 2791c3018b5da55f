package sim

import (
	"fmt"
	"testing"
)

// BenchmarkScheduleRun measures raw event throughput: schedule-and-fire
// of independent events.
func BenchmarkScheduleRun(b *testing.B) {
	k := NewKernel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(Time(i)*1e-6, func() {})
		if i%1024 == 1023 {
			k.Run()
		}
	}
	k.Run()
}

// BenchmarkSelfScheduling measures the recycling fast path: one event
// chain rescheduling itself b.N times.
func BenchmarkSelfScheduling(b *testing.B) {
	k := NewKernel(1)
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			k.Schedule(1e-6, step)
		}
	}
	b.ResetTimer()
	k.Schedule(0, step)
	k.Run()
}

// BenchmarkTimerReset measures the protocol-timer hot path.
func BenchmarkTimerReset(b *testing.B) {
	k := NewKernel(1)
	t := NewTimer(k, func() {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Reset(1)
	}
	t.Stop()
}

// BenchmarkHeapMixed measures interleaved schedule/cancel at a queue
// depth typical of a 500-node simulation.
func BenchmarkHeapMixed(b *testing.B) {
	k := NewKernel(1)
	const depth = 4096
	evs := make([]*Event, 0, depth)
	for i := 0; i < depth; i++ {
		evs = append(evs, k.Schedule(Time(i)+1e6, func() {}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Cancel(evs[i%depth])
		evs[i%depth] = k.Schedule(Time(i%depth)+1e6, func() {})
	}
}

// walker is a cursor's handler in BenchmarkCursorWalk: a pointer with
// its own Fire, as a transmission's edges are, so no adapter sits
// between the kernel and the edge.
type walker struct {
	k     *Kernel
	first uint64
	left  int
}

func (w *walker) Fire() {
	if w.left--; w.left > 0 {
		w.k.Rekey(EventKey{At: w.k.Now() + 1e-9, Seq: w.first + uint64(cursorEdges-w.left)})
	}
}

// cursorEdges is the run length BenchmarkCursorWalk walks.
const cursorEdges = 74

// BenchmarkCursorWalk measures the signal-edge path: one cursor walks a
// run of 74 keys 1 ns apart, re-keying itself at every edge, over a heap
// of far-future ordinary events as deep as flood_dense's mean (27) and
// route_unicast's (400). It reports ns per edge.
func BenchmarkCursorWalk(b *testing.B) {
	const edges = cursorEdges
	for _, depth := range []int{27, 400} {
		b.Run(fmt.Sprintf("heap_%d", depth), func(b *testing.B) {
			k := NewKernel(1)
			for i := 0; i < depth; i++ {
				k.At(1e9+Time(i), func() {})
			}
			w := &walker{k: k}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.first, w.left = k.ReserveSeq(edges), edges
				k.AtCursor(EventKey{At: k.Now() + 1e-9, Seq: w.first}, w)
				for w.left > 0 {
					k.Step()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*edges), "ns/edge")
		})
	}
}
