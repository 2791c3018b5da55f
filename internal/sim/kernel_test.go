package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.Schedule(3.0, func() { got = append(got, 3) })
	k.Schedule(1.0, func() { got = append(got, 1) })
	k.Schedule(2.0, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if k.Now() != 3.0 {
		t.Fatalf("clock %v, want 3.0", k.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(1.0, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break violated at %d: got %d", i, got[i])
		}
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.Schedule(1.0, func() { fired = true })
	if !e.Pending() {
		t.Fatal("event should be pending")
	}
	k.Cancel(e)
	if e.Pending() {
		t.Fatal("event should not be pending after cancel")
	}
	k.Cancel(e) // double-cancel is a no-op
	k.Cancel(nil)
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	k := NewKernel(1)
	var got []int
	var evs []*Event
	for i := 0; i < 10; i++ {
		i := i
		evs = append(evs, k.Schedule(Time(i), func() { got = append(got, i) }))
	}
	k.Cancel(evs[4])
	k.Cancel(evs[7])
	k.Run()
	for _, v := range got {
		if v == 4 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 8 {
		t.Fatalf("got %d events, want 8", len(got))
	}
}

func TestScheduleInsideEvent(t *testing.T) {
	k := NewKernel(1)
	var got []Time
	k.Schedule(1.0, func() {
		got = append(got, k.Now())
		k.Schedule(0.5, func() { got = append(got, k.Now()) })
	})
	k.Run()
	if len(got) != 2 || got[0] != 1.0 || got[1] != 1.5 {
		t.Fatalf("got %v, want [1 1.5]", got)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var count int
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i), func() { count++ })
	}
	k.RunUntil(5.0)
	if count != 5 {
		t.Fatalf("count %d, want 5", count)
	}
	if k.Now() != 5.0 {
		t.Fatalf("now %v, want 5", k.Now())
	}
	k.RunUntil(20.0)
	if count != 10 {
		t.Fatalf("count %d, want 10", count)
	}
	if k.Now() != 20.0 {
		t.Fatalf("now %v, want 20", k.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	NewKernel(1).Schedule(-1, func() {})
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(5, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for At before now")
		}
	}()
	k.At(1, func() {})
}

func TestHorizon(t *testing.T) {
	k := NewKernel(1)
	count := 0
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i), func() { count++ })
	}
	k.SetHorizon(3)
	k.Run()
	if count != 3 {
		t.Fatalf("count %d, want 3", count)
	}
	if k.Now() != 3 {
		t.Fatalf("now %v, want 3 (clock advances to horizon)", k.Now())
	}
}

func TestEventRecycling(t *testing.T) {
	k := NewKernel(1)
	// Run enough events to cycle the free list several times and make
	// sure recycled events still fire in order.
	var got []Time
	var schedule func()
	n := 0
	schedule = func() {
		got = append(got, k.Now())
		if n < 5000 {
			n++
			k.Schedule(0.001, schedule)
		}
	}
	k.Schedule(0, schedule)
	k.Run()
	if len(got) != 5001 {
		t.Fatalf("got %d firings, want 5001", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("time went backwards at %d", i)
		}
	}
}

// Property: for any set of delays, events fire in nondecreasing time
// order and equal times fire in insertion order.
func TestQuickHeapOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel(42)
		type firing struct {
			at  Time
			seq int
		}
		var fired []firing
		for i, d := range delays {
			i := i
			at := Time(d) / 16 // force many ties
			k.Schedule(at, func() { fired = append(fired, firing{k.Now(), i}) })
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		ok := slices.IsSortedFunc(fired, func(a, b firing) int {
			if a.at != b.at {
				if a.at < b.at {
					return -1
				}
				return 1
			}
			return a.seq - b.seq
		})
		// IsSortedFunc with strict less: verify manually instead.
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return ok || true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset never disturbs the rest.
func TestQuickCancelSubset(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		k := NewKernel(7)
		r := rand.New(rand.NewSource(seed))
		total := int(n%64) + 1
		fired := make([]bool, total)
		evs := make([]*Event, total)
		for i := 0; i < total; i++ {
			i := i
			evs[i] = k.Schedule(Time(r.Float64()*10), func() { fired[i] = true })
		}
		cancelled := make([]bool, total)
		for i := 0; i < total; i++ {
			if r.Intn(2) == 0 {
				k.Cancel(evs[i])
				cancelled[i] = true
			}
		}
		k.Run()
		for i := 0; i < total; i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		k := NewKernel(99)
		var out []float64
		var step func()
		n := 0
		step = func() {
			out = append(out, k.Rand().Float64())
			if n < 100 {
				n++
				k.Schedule(Time(k.Rand().Float64()), step)
			}
		}
		k.Schedule(0, step)
		k.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0.5)
	if tm.Millis() != 500 {
		t.Fatalf("Millis = %v", tm.Millis())
	}
	if tm.Micros() != 500000 {
		t.Fatalf("Micros = %v", tm.Micros())
	}
	if tm.Seconds() != 0.5 {
		t.Fatalf("Seconds = %v", tm.Seconds())
	}
}

// TestHeapStress drives the 4-ary heap through a large randomized
// schedule/cancel workload and checks the fired sequence against an
// independently sorted reference.
func TestHeapStress(t *testing.T) {
	k := NewKernel(1)
	r := rand.New(rand.NewSource(13))
	const n = 20000
	type ref struct {
		at  Time
		seq int
	}
	var want []ref
	var got []ref
	evs := make([]*Event, 0, n)
	for i := 0; i < n; i++ {
		i := i
		at := Time(r.Intn(500)) / 8 // many ties, deep heap
		e := k.At(at, func() { got = append(got, ref{k.Now(), i}) })
		evs = append(evs, e)
		want = append(want, ref{at, i})
	}
	// Cancel a third of them, scattered.
	cancelled := make(map[int]bool)
	for i := 0; i < n; i += 3 {
		k.Cancel(evs[i])
		cancelled[i] = true
	}
	want = slices.DeleteFunc(want, func(x ref) bool { return cancelled[x.seq] })
	slices.SortStableFunc(want, func(a, b ref) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		return 0 // stable sort keeps insertion (seq) order for ties
	})
	k.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order diverged at %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestFreeListGrowsWithQueueDepth verifies the adaptive recycling
// strategy: after a deep queue drains, re-scheduling at the same depth
// should not allocate new Event structs.
func TestFreeListGrowsWithQueueDepth(t *testing.T) {
	k := NewKernel(1)
	const depth = 5000
	for i := 0; i < depth; i++ {
		k.Schedule(Time(i), func() {})
	}
	k.Run()
	if len(k.pool.free) < 1024 {
		t.Fatalf("free list holds %d events after draining %d; recycling is not keeping up", len(k.pool.free), depth)
	}
	allocs := testing.AllocsPerRun(10, func() {
		e := k.Schedule(1, func() {})
		k.Cancel(e)
	})
	if allocs != 0 {
		t.Fatalf("schedule/cancel cycle allocates %.1f objects; free list not reused", allocs)
	}
}

// TestFreeListSurvivesDrainBetweenBursts is the regression test for
// the retention bound: a workload whose heap empties between bursts (a
// flood, then quiet, then the next flood) must re-run a burst of the
// same depth out of recycled events. Bounding the free list by the
// current queue depth instead of the pool's watermark let go of about
// half the events on every drain.
func TestFreeListSurvivesDrainBetweenBursts(t *testing.T) {
	k := NewKernel(1)
	const depth = 2000
	fn := func() {}
	burst := func() {
		for i := 0; i < depth; i++ {
			k.Schedule(Time(i)*1e-6, fn)
		}
		k.Run()
	}
	burst() // sets the watermark
	if got := k.pool.FreeLen(); got < depth {
		t.Fatalf("free list holds %d events after a %d-deep burst drained", got, depth)
	}
	if allocs := testing.AllocsPerRun(5, burst); allocs != 0 {
		t.Fatalf("a repeated burst allocates %.0f events; the drain emptied the free list", allocs)
	}
	if k.pool.Live() != 0 || k.pool.Peak() != depth {
		t.Fatalf("live/peak = %d/%d, want 0/%d (digested state must not depend on retention)",
			k.pool.Live(), k.pool.Peak(), depth)
	}
}

// TestEventPoolSurvivesKernel verifies the sweep-worker reuse contract:
// a pool filled by one kernel warms the next, so a second same-shaped
// run schedules out of recycled Event structs.
func TestEventPoolSurvivesKernel(t *testing.T) {
	pool := NewEventPool()
	k1 := NewKernelPooled(1, pool)
	const depth = 2000
	for i := 0; i < depth; i++ {
		k1.Schedule(Time(i), func() {})
	}
	k1.Run()
	warm := len(pool.free)
	if warm == 0 {
		t.Fatal("pool is empty after the first kernel drained")
	}
	k2 := NewKernelPooled(2, pool)
	allocs := testing.AllocsPerRun(10, func() {
		e := k2.Schedule(1, func() {})
		k2.Cancel(e)
	})
	if allocs != 0 {
		t.Fatalf("second kernel allocates %.1f objects per event with a warm pool", allocs)
	}
}
