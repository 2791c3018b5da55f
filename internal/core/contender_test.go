package core

import (
	"testing"

	"routeless/internal/packet"
	"routeless/internal/sim"
)

// fakeQueue is a Recaller that answers every recall with ok and counts
// the calls.
type fakeQueue struct {
	ok    bool
	calls int
}

func (q *fakeQueue) Dequeue(*packet.Packet) bool {
	q.calls++
	return q.ok
}

func TestContenderArmQueuesOneEvent(t *testing.T) {
	k := sim.NewKernel(1)
	fired := 0
	var c Contender
	c.Init(k, sim.Func(func() { fired++ }))
	k.Schedule(2, func() { c.Arm(0.25) })
	k.Step()
	if k.Pending() != 1 {
		t.Fatalf("%d events pending after Arm, want 1", k.Pending())
	}
	if key := k.PendingKeys()[0]; key.At != 2.25 {
		t.Fatalf("armed for %v, want now+d = 2.25", key.At)
	}
	if c.Phase != Pending || c.Backoff != 0.25 {
		t.Fatalf("phase %v backoff %v, want Pending 0.25", c.Phase, c.Backoff)
	}
	k.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
}

func TestContenderWithdraw(t *testing.T) {
	for _, tc := range []struct {
		name      string
		phase     Phase
		recall    bool // the queue's answer
		want      bool
		wantPhase Phase
		wantCalls int
	}{
		{"pending", Pending, false, true, Done, 0},
		{"queued-recalled", Queued, true, true, Done, 1},
		{"queued-on-air", Queued, false, false, Queued, 1},
		{"on-air", OnAir, true, false, OnAir, 0},
		{"done", Done, true, false, Done, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			var c Contender
			c.Init(k, sim.Func(func() { t.Fatal("withdrawn bid fired") }))
			if tc.phase == Pending {
				c.Arm(1)
			}
			c.Phase = tc.phase
			q := &fakeQueue{ok: tc.recall}
			if got := c.Withdraw(q, &packet.Packet{}); got != tc.want {
				t.Fatalf("Withdraw = %v, want %v", got, tc.want)
			}
			if c.Phase != tc.wantPhase {
				t.Fatalf("phase %v, want %v", c.Phase, tc.wantPhase)
			}
			if q.calls != tc.wantCalls {
				t.Fatalf("recaller called %d times, want %d", q.calls, tc.wantCalls)
			}
			if k.Pending() != 0 {
				t.Fatalf("%d events pending, want 0", k.Pending())
			}
			k.Run()
		})
	}
}

func TestContenderStop(t *testing.T) {
	var zero Contender
	zero.Stop() // no timer bound: nothing to stop, and no panic
	if zero.Phase != Done {
		t.Fatalf("phase %v after Stop, want Done", zero.Phase)
	}

	k := sim.NewKernel(1)
	var c Contender
	c.Init(k, sim.Func(func() { t.Fatal("stopped bid fired") }))
	c.Arm(1)
	c.Stop()
	if c.Phase != Done || k.Pending() != 0 {
		t.Fatalf("phase %v with %d events pending, want Done and 0", c.Phase, k.Pending())
	}
	k.Run()
}

// selfBid is a per-packet state that is its own timer's handler, as
// flooding's forwards and Routeless Routing's relay states are.
type selfBid struct {
	Contender
	fired int
}

func (b *selfBid) Fire() { b.fired++ }

// TestContenderInitAllocatesNothing pins Init with a pointer handler: a
// bid bound to itself, armed and fired on a warm kernel, allocates
// nothing.
func TestContenderInitAllocatesNothing(t *testing.T) {
	k := sim.NewKernel(1)
	b := &selfBid{}
	cycle := func() {
		b.Init(k, b)
		b.Arm(0.25)
		k.Run()
	}
	cycle() // warms the event pool
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("bind, arm and fire: %v allocations per cycle, want 0", allocs)
	}
	if b.fired != runs+2 { // AllocsPerRun warms up once
		t.Fatalf("bid fired %d times, want %d", b.fired, runs+2)
	}
}
