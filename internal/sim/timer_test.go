package sim

import (
	"testing"
	"unsafe"
)

func TestTimerBasic(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	var at Time
	tm := NewTimer(k, func() { fired++; at = k.Now() })
	if k.Pending() != 0 {
		t.Fatal("a new timer should schedule nothing")
	}
	tm.Reset(1.0)
	if k.Pending() != 1 {
		t.Fatalf("%d events pending after Reset, want 1", k.Pending())
	}
	k.Run()
	if fired != 1 || at != 1.0 {
		t.Fatalf("fired %d times, last at %v; want once at 1", fired, at)
	}
	if k.Pending() != 0 {
		t.Fatal("nothing should stay pending after the timer fired")
	}
}

func TestTimerResetReplacesSchedule(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	var at Time
	tm := NewTimer(k, func() { fired++; at = k.Now() })
	tm.Reset(1.0)
	tm.Reset(5.0) // should cancel the 1.0 firing
	if k.Pending() != 1 {
		t.Fatalf("%d events pending after two Resets, want 1", k.Pending())
	}
	k.Run()
	if fired != 1 || at != 5.0 {
		t.Fatalf("fired %d times, last at %v; want once at 5", fired, at)
	}
}

func TestTimerStop(t *testing.T) {
	k := NewKernel(1)
	tm := NewTimer(k, func() { t.Fatal("stopped timer fired") })
	tm.Reset(1.0)
	tm.Stop()
	tm.Stop() // idempotent
	k.Run()
}

func TestTimerRestartInsideCallback(t *testing.T) {
	k := NewKernel(1)
	var times []Time
	var tm *Timer
	tm = NewTimer(k, func() {
		times = append(times, k.Now())
		if len(times) < 3 {
			tm.Reset(1.0)
		}
	})
	tm.Reset(1.0)
	k.Run()
	want := []Time{1, 2, 3}
	if len(times) != 3 {
		t.Fatalf("fired %d times, want 3", len(times))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times %v, want %v", times, want)
		}
	}
}

func TestTickerPeriodic(t *testing.T) {
	k := NewKernel(1)
	var times []Time
	tk := NewTicker(k, 2.0, func() { times = append(times, k.Now()) })
	tk.Start()
	k.RunUntil(9.0)
	want := []Time{2, 4, 6, 8}
	if len(times) != len(want) {
		t.Fatalf("ticked %d times, want %d: %v", len(times), len(want), times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticks %v, want %v", times, want)
		}
	}
	tk.Stop()
	k.SetHorizon(Infinity)
	k.Run()
	if len(times) != len(want) {
		t.Fatal("ticker kept ticking after Stop")
	}
}

func TestTickerStartAfterDephases(t *testing.T) {
	k := NewKernel(1)
	var times []Time
	tk := NewTicker(k, 2.0, func() { times = append(times, k.Now()) })
	tk.StartAfter(0.5)
	k.RunUntil(5.0)
	want := []Time{0.5, 2.5, 4.5}
	if len(times) != len(want) {
		t.Fatalf("ticks %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticks %v, want %v", times, want)
		}
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTicker(NewKernel(1), 0, func() {})
}

func TestNilCallbacksPanic(t *testing.T) {
	k := NewKernel(1)
	func() {
		defer func() { recover() }()
		NewTimer(k, nil)
		t.Error("NewTimer(nil) should panic")
	}()
	func() {
		defer func() { recover() }()
		k.Schedule(1, nil)
		t.Error("Schedule(nil) should panic")
	}()
}

// counter is a pointer handler: the shape protocol states bind.
type counter struct{ n int }

func (c *counter) Fire() { c.n++ }

// TestTimerBindingAllocatesNothing pins handler binding: a timer bound
// to a pointer handler with InitTimer, armed and fired on a warm kernel,
// allocates nothing — the timer is its events' handler, and a pointer
// in an interface is not boxed.
func TestTimerBindingAllocatesNothing(t *testing.T) {
	k := NewKernel(1)
	h := &counter{}
	var tm Timer
	cycle := func() {
		InitTimer(&tm, k, h)
		tm.Reset(1)
		k.Run()
	}
	cycle() // warms the event pool
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("bind, arm and fire: %v allocations per cycle, want 0", allocs)
	}
	if h.n != runs+2 { // AllocsPerRun warms up once
		t.Fatalf("handler fired %d times, want %d", h.n, runs+2)
	}
}

// TestEventAndTimerSize pins both at 32 bytes: the handler's two words,
// the kernel (an event's) or the pending event (a timer's), and for an
// event a 32-bit heap index beside the cursor flag.
func TestEventAndTimerSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 32 {
		t.Errorf("Event is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(Timer{}); got != 32 {
		t.Errorf("Timer is %d bytes, want 32", got)
	}
}
