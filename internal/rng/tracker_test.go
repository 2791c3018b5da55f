package rng

import (
	"math/rand"
	"testing"
)

// refSource is a bare SplitMix64 written out from the reference
// algorithm, counting calls — what the package's source is checked
// against.
type refSource struct {
	state uint64
	calls uint64
}

func (s *refSource) Uint64() uint64 {
	s.calls++
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *refSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *refSource) Seed(int64) {}

// g is gamma as a variable: multiples of it wrap, which constant
// arithmetic refuses to do.
var g uint64 = gamma

func states(tr *Tracker) []uint64 {
	var out []uint64
	tr.Visit(func(s uint64) { out = append(out, s) })
	return out
}

// TestTrackedStreamIdentity: a stream created through a Tracker, its
// package-level twin, and a bare SplitMix64 seeded with the derived
// value all produce the same draws — accounting never perturbs.
func TestTrackedStreamIdentity(t *testing.T) {
	tracked := NewTracker().New(42, StreamTraffic, 3)
	plain := New(42, StreamTraffic, 3)
	ref := &refSource{state: uint64(Derive(42, StreamTraffic, 3))}
	for i := 0; i < 1000; i++ {
		a, b, c := tracked.Uint64(), plain.Uint64(), ref.Uint64()
		if a != c || b != c {
			t.Fatalf("draw %d diverged: tracked %#x, plain %#x, reference %#x", i, a, b, c)
		}
	}

	trackedN := NewTracker().ForNode(42, StreamMAC, 7)
	plainN := ForNode(42, StreamMAC, 7)
	for i := 0; i < 1000; i++ {
		if a, b := trackedN.Uint64(), plainN.Uint64(); a != b {
			t.Fatalf("per-node draw %d diverged: %#x vs %#x", i, a, b)
		}
	}
}

// TestTrackerVisit: Len and Visit expose streams in creation order,
// across chunk boundaries, each state being its origin plus one gamma
// per draw.
func TestTrackerVisit(t *testing.T) {
	tr := NewTracker()
	a := tr.New(1, StreamTraffic)
	b := tr.ForNode(1, StreamMAC, 5)
	for i := 2; i < chunkLen+3; i++ {
		tr.New(1, StreamFuzz, uint64(i))
	}
	if tr.Len() != chunkLen+3 {
		t.Fatalf("Len = %d, want %d", tr.Len(), chunkLen+3)
	}
	a.Uint64()
	a.Uint64()
	a.Uint64()
	b.Uint64()

	got := states(tr)
	if len(got) != tr.Len() {
		t.Fatalf("visited %d streams, Len = %d", len(got), tr.Len())
	}
	if want := uint64(Derive(1, StreamTraffic)) + 3*g; got[0] != want {
		t.Fatalf("stream 0 state = %#x, want origin+3γ = %#x", got[0], want)
	}
	if want := uint64(Derive(1, StreamMAC, 5+0x1000)) + g; got[1] != want {
		t.Fatalf("stream 1 state = %#x, want origin+γ = %#x", got[1], want)
	}
	for i := 2; i < len(got); i++ {
		if want := uint64(Derive(1, StreamFuzz, uint64(i))); got[i] != want {
			t.Fatalf("stream %d state = %#x, want untouched origin %#x", i, got[i], want)
		}
	}
}

// TestTrackerCountsRandCalls: rand.Rand helpers that draw a
// data-dependent number of times (Intn's rejection loop, ExpFloat64's
// ziggurat) are accounted exactly: the state has advanced by one gamma
// per call the reference source saw for the same helper sequence.
func TestTrackerCountsRandCalls(t *testing.T) {
	tr := NewTracker()
	r := tr.New(9, StreamFuzz)
	origin := uint64(Derive(9, StreamFuzz))
	ref := &refSource{state: origin}
	rr := rand.New(ref)
	for i := 0; i < 1000; i++ {
		if a, b := r.Float64(), rr.Float64(); a != b {
			t.Fatalf("Float64 %d diverged: %v vs %v", i, a, b)
		}
		if a, b := r.Intn(10), rr.Intn(10); a != b {
			t.Fatalf("Intn %d diverged: %v vs %v", i, a, b)
		}
		if a, b := r.ExpFloat64(), rr.ExpFloat64(); a != b {
			t.Fatalf("ExpFloat64 %d diverged: %v vs %v", i, a, b)
		}
	}
	if ref.calls < 3000 {
		t.Fatalf("reference saw %d draws for 3000 rand calls", ref.calls)
	}
	if got, want := states(tr)[0], origin+ref.calls*g; got != want {
		t.Fatalf("state = %#x, want origin + %d·γ = %#x", got, ref.calls, want)
	}
}
