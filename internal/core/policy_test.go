package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"routeless/internal/sim"
)

func testCtx(r *rand.Rand) Context {
	return Context{Rand: r}
}

func TestUniformRange(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := Uniform{Max: 0.01}
	for i := 0; i < 1000; i++ {
		d, ok := p.Backoff(testCtx(r))
		if !ok {
			t.Fatal("uniform policy must always participate")
		}
		if d < 0 || d >= 0.01 {
			t.Fatalf("delay %v outside [0, 0.01)", d)
		}
	}
}

func TestSignalStrengthOrdering(t *testing.T) {
	// Weak signal (far node) must stochastically beat strong signal
	// (near node): mean delay strictly increasing in RSSI.
	r := rand.New(rand.NewSource(2))
	p := SignalStrength{Lambda: 0.01, MinDBm: -55, MaxDBm: -25, JitterFrac: 0.1}
	mean := func(rssi float64) sim.Time {
		var sum sim.Time
		for i := 0; i < 2000; i++ {
			d, _ := p.Backoff(Context{RSSIdBm: rssi, Rand: r})
			sum += d
		}
		return sum / 2000
	}
	weak, mid, strong := mean(-55), mean(-40), mean(-25)
	if !(weak < mid && mid < strong) {
		t.Fatalf("delays not increasing with signal strength: %v %v %v", weak, mid, strong)
	}
}

func TestSignalStrengthClamping(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p := SignalStrength{Lambda: 0.01, MinDBm: -55, MaxDBm: -25, JitterFrac: 0}
	// Below the decode floor: zero deterministic delay.
	if d, _ := p.Backoff(Context{RSSIdBm: -90, Rand: r}); d != 0 {
		t.Fatalf("below-floor delay %v, want 0", d)
	}
	// Above the near reference: clamped to Lambda.
	if d, _ := p.Backoff(Context{RSSIdBm: 0, Rand: r}); d != 0.01 {
		t.Fatalf("above-ceiling delay %v, want Lambda", d)
	}
}

func TestSignalStrengthDegenerateSpan(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	p := SignalStrength{Lambda: 0.01, MinDBm: -40, MaxDBm: -40, JitterFrac: 0.1}
	d, ok := p.Backoff(Context{RSSIdBm: -40, Rand: r})
	if !ok || d < 0 || d > 0.001*1.001 {
		t.Fatalf("degenerate span mishandled: d=%v ok=%v", d, ok)
	}
}

func TestHopGradientBranches(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p := HopGradient{Lambda: 0.005}
	// h_table ≤ h_expected: delay in [0, λ).
	for i := 0; i < 500; i++ {
		d, ok := p.Backoff(Context{HopsToTarget: 3, ExpectedHops: 5, Rand: r})
		if !ok {
			t.Fatal("node with table entry must participate")
		}
		if d < 0 || d >= 0.005 {
			t.Fatalf("inside-expected delay %v outside [0, λ)", d)
		}
	}
	// h_table > h_expected: delay ≥ λ, growing with the excess — the
	// paper's "assigns a backoff delay larger than λ to nodes with a
	// larger hop count than expected".
	for i := 0; i < 500; i++ {
		d, _ := p.Backoff(Context{HopsToTarget: 7, ExpectedHops: 5, Rand: r})
		if d < 0.005*2 || d >= 0.005*3 {
			t.Fatalf("excess-2 delay %v outside [2λ, 3λ)", d)
		}
	}
}

func TestHopGradientAbstainsWithoutEntry(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	p := HopGradient{Lambda: 0.005}
	if _, ok := p.Backoff(Context{HopsToTarget: -1, ExpectedHops: 3, Rand: r}); ok {
		t.Fatal("node without active-table entry must abstain")
	}
}

// Property: smaller h_table never yields a larger delay band — "the
// smaller h_table is, the smaller the backoff delay will be".
func TestQuickHopGradientMonotone(t *testing.T) {
	p := HopGradient{Lambda: 0.005}
	f := func(seed int64, hexp uint8) bool {
		r := rand.New(rand.NewSource(seed))
		exp := int(hexp % 16)
		prevMax := sim.Time(-1)
		for h := 0; h < exp+8; h++ {
			// Band bounds for this h are deterministic given the branch.
			d, ok := p.Backoff(Context{HopsToTarget: h, ExpectedHops: exp, Rand: r})
			if !ok {
				return false
			}
			var lo sim.Time
			if h > exp {
				lo = p.Lambda * sim.Time(h-exp)
			}
			hi := lo + p.Lambda
			if d < lo || d >= hi {
				return false
			}
			if lo < prevMax {
				return false // bands must be nondecreasing
			}
			prevMax = lo
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
