package routing

import (
	"testing"
	"testing/quick"

	"routeless/internal/packet"
)

func TestTableObserveAndHops(t *testing.T) {
	tb := &ActiveTable{}
	if tb.Hops(1) != -1 {
		t.Fatal("unknown target should report -1")
	}
	tb.Observe(1, 3, 10, 0)
	if tb.Hops(1) != 3 {
		t.Fatalf("hops = %d, want 3", tb.Hops(1))
	}
	if len(tb.entries) != 1 {
		t.Fatalf("len = %d", len(tb.entries))
	}
}

func TestTableMinWithinSequence(t *testing.T) {
	tb := &ActiveTable{}
	tb.Observe(1, 5, 10, 0)
	tb.Observe(1, 3, 10, 1) // shorter copy of the same flood
	if tb.Hops(1) != 3 {
		t.Fatalf("hops = %d, want 3 (min within seq)", tb.Hops(1))
	}
	tb.Observe(1, 7, 10, 2) // longer copy must not regress the entry
	if tb.Hops(1) != 3 {
		t.Fatalf("hops = %d, want 3 after longer duplicate", tb.Hops(1))
	}
}

func TestTableInflationDamped(t *testing.T) {
	tb := &ActiveTable{}
	tb.Observe(1, 3, 10, 0)
	tb.Observe(1, 6, 11, 1) // longer path, newer seq, shorter still fresh
	if tb.Hops(1) != 3 {
		t.Fatalf("hops = %d, want 3 (inflation damped)", tb.Hops(1))
	}
	tb.Observe(1, 9, 5, 2) // stale sequence ignored
	if tb.Hops(1) != 3 {
		t.Fatalf("hops = %d, want 3 after stale observation", tb.Hops(1))
	}
}

func TestTableInflatesAfterWindow(t *testing.T) {
	tb := &ActiveTable{}
	tb.Observe(1, 3, 10, 0)
	// Past the damping window with no confirmation of "3": the longer
	// distance is believed — the short path died (§4.3 failures).
	tb.Observe(1, 6, 11, inflateAfter+1)
	if tb.Hops(1) != 6 {
		t.Fatalf("hops = %d, want 6 (short path stale)", tb.Hops(1))
	}
}

func TestTableConfirmationRefreshesDamping(t *testing.T) {
	tb := &ActiveTable{}
	tb.Observe(1, 3, 10, 0)
	tb.Observe(1, 3, 12, 4) // confirmation at t=4 resets the window
	tb.Observe(1, 6, 13, 7) // only 3s since confirmation: damped
	if tb.Hops(1) != 3 {
		t.Fatalf("hops = %d, want 3 (confirmed recently)", tb.Hops(1))
	}
}

func TestTableSequenceHorizonAdvances(t *testing.T) {
	tb := &ActiveTable{}
	tb.Observe(1, 3, 10, 0)
	tb.Observe(1, 6, 20, 1) // damped, but seq horizon moves to 20
	// A copy from the stale seq 15 carries no information — even a
	// shorter one is ignored once the horizon passed it.
	tb.Observe(1, 2, 15, 2)
	if tb.Hops(1) != 3 {
		t.Fatalf("hops = %d, want 3 (stale seq ignored)", tb.Hops(1))
	}
}

func TestTableRejectsNonPositiveHops(t *testing.T) {
	tb := &ActiveTable{}
	tb.Observe(1, 0, 10, 0)
	tb.Observe(1, -2, 11, 0)
	if len(tb.entries) != 0 {
		t.Fatal("non-positive hop counts must be ignored")
	}
}

// Property: with every observation inside the damping window (all at
// t=0), the entry equals the minimum hop count among observations that
// were not sequence-stale on arrival — inflation never happens inside
// the window.
func TestQuickTableSemanticsInWindow(t *testing.T) {
	type obs struct {
		Hops uint8
		Seq  uint8
	}
	f := func(observations []obs) bool {
		tb := &ActiveTable{}
		horizon := -1
		want := -1
		for _, o := range observations {
			h := int(o.Hops%20) + 1
			s := int(o.Seq % 8)
			tb.Observe(packet.NodeID(1), h, uint32(s), 0)
			if want == -1 {
				horizon, want = s, h
				continue
			}
			if s < horizon {
				continue // stale on arrival: ignored
			}
			if s > horizon {
				horizon = s
			}
			if h < want {
				want = h
			}
		}
		return tb.Hops(1) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
