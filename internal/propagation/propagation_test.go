package propagation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDBmConversionRoundTrip(t *testing.T) {
	for _, dbm := range []float64{-90, -30, 0, 10, 24.5} {
		mw := DBmToMilliwatt(dbm)
		back := MilliwattToDBm(mw)
		if math.Abs(back-dbm) > 1e-9 {
			t.Fatalf("round trip %v -> %v -> %v", dbm, mw, back)
		}
	}
	if !math.IsInf(MilliwattToDBm(0), -1) {
		t.Fatal("0 mW should be -Inf dBm")
	}
}

// TestGainIsReceivedPowerInMilliwatts pins the channel's linear power
// rule against the calibration in dB: txMW·Gain(d) is
// DBmToMilliwatt(ReceivedPower(tx, d)) to 1e-12 relative, from 1 m to
// the fading cutoff (the carrier-sense range of a 250 m calibration,
// widened by a 12 dB fade margin), and ReceivedPower is Friis's
// tx + 20·log10(λ/4πd). A wrong constant would move every power by the
// same ratio and pass any byte gate.
func TestGainIsReceivedPowerInMilliwatts(t *testing.T) {
	m := NewFreeSpace()
	const tx, fadeMarginDB = 24.5, 12
	cutoff := RangeFor(m, tx, ThresholdFor(m, tx, 250*2.2)-fadeMarginDB, 1, 1e5)
	if cutoff < 2000 {
		t.Fatalf("fading cutoff %v m, want the 12 dB margin to reach past 2 km", cutoff)
	}
	txMW := DBmToMilliwatt(tx)
	for d := 1.0; d <= cutoff; d += 0.37 {
		lin, db := txMW*m.Gain(d), DBmToMilliwatt(m.ReceivedPower(tx, d))
		if rel := math.Abs(lin-db) / db; rel > 1e-12 {
			t.Fatalf("d=%v m: txMW·Gain = %v mW, DBmToMilliwatt(ReceivedPower) = %v mW (relative %v)", d, lin, db, rel)
		}
		friis := tx + 20*math.Log10(m.Wavelength()/(4*math.Pi*d))
		if got := m.ReceivedPower(tx, d); math.Abs(got-friis) > 1e-9 {
			t.Fatalf("d=%v m: ReceivedPower = %v dBm, Friis gives %v", d, got, friis)
		}
	}
}

func TestFreeSpaceMonotone(t *testing.T) {
	m := NewFreeSpace()
	prev := m.ReceivedPower(20, 1)
	for d := 2.0; d <= 2000; d += 7 {
		p := m.ReceivedPower(20, d)
		if p >= prev {
			t.Fatalf("power not strictly decreasing at d=%v: %v >= %v", d, p, prev)
		}
		prev = p
	}
}

func TestFreeSpaceInverseSquare(t *testing.T) {
	m := NewFreeSpace()
	// Doubling distance should cost exactly 20·log10(2) ≈ 6.02 dB.
	p1 := m.ReceivedPower(20, 100)
	p2 := m.ReceivedPower(20, 200)
	if math.Abs((p1-p2)-20*math.Log10(2)) > 1e-9 {
		t.Fatalf("free space slope wrong: Δ=%v dB", p1-p2)
	}
}

func TestFreeSpaceNearFieldClamp(t *testing.T) {
	m := NewFreeSpace()
	if m.ReceivedPower(20, 0) != m.ReceivedPower(20, m.RefDistance) {
		t.Fatal("near field not clamped to reference distance")
	}
}

func TestFreeSpaceTxPowerLinearity(t *testing.T) {
	m := NewFreeSpace()
	// +3 dB at the transmitter is +3 dB at every receiver.
	d := 137.0
	if diff := m.ReceivedPower(23, d) - m.ReceivedPower(20, d); math.Abs(diff-3) > 1e-9 {
		t.Fatalf("tx power linearity broken: %v", diff)
	}
}

func TestRangeForCalibration(t *testing.T) {
	m := NewFreeSpace()
	tx := 24.5
	thr := ThresholdFor(m, tx, 250)
	r := RangeFor(m, tx, thr, 1, 10000)
	if math.Abs(r-250) > 0.01 {
		t.Fatalf("calibrated range %v, want 250", r)
	}
}

func TestRangeForEdgeCases(t *testing.T) {
	m := NewFreeSpace()
	if r := RangeFor(m, 20, 1000 /* absurd threshold */, 1, 1000); r != 0 {
		t.Fatalf("unreachable threshold should give 0, got %v", r)
	}
	if r := RangeFor(m, 20, -1000 /* trivially met */, 1, 1000); r != 1000 {
		t.Fatalf("trivially met threshold should return hi, got %v", r)
	}
}

// Property: ThresholdFor and RangeFor are inverses over the model's range.
func TestQuickCalibrationInverse(t *testing.T) {
	m := NewFreeSpace()
	f := func(rangeM float64) bool {
		want := 10 + math.Mod(math.Abs(rangeM), 1000)
		thr := ThresholdFor(m, 24.5, want)
		got := RangeFor(m, 24.5, thr, 1, 5000)
		return math.Abs(got-want) < 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRayleighUnitMeanPower(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := Rayleigh{}
	const n = 50000
	var sumLinear float64
	mean := -70.0
	for i := 0; i < n; i++ {
		sumLinear += DBmToMilliwatt(f.Fade(r, mean))
	}
	avg := sumLinear / n
	want := DBmToMilliwatt(mean)
	if math.Abs(avg-want)/want > 0.05 {
		t.Fatalf("rayleigh mean power %v, want %v (unit-mean fading)", avg, want)
	}
}

func TestRayleighLargeScaleTrendHolds(t *testing.T) {
	// The paper's §3 argument: even with dramatic small-scale variation,
	// weaker-with-distance holds at large scale. Average many fades at
	// two distances and check the ordering.
	r := rand.New(rand.NewSource(3))
	m := NewFreeSpace()
	f := Rayleigh{}
	avg := func(d float64) float64 {
		var s float64
		for i := 0; i < 5000; i++ {
			s += f.Fade(r, m.ReceivedPower(20, d))
		}
		return s / 5000
	}
	if avg(100) <= avg(200) {
		t.Fatal("large-scale distance trend violated under Rayleigh fading")
	}
}

func TestDelay(t *testing.T) {
	d := Delay(SpeedOfLight)
	if math.Abs(d-1) > 1e-12 {
		t.Fatalf("Delay(c) = %v, want 1s", d)
	}
	// 250 m ≈ 0.83 µs — negligible vs. millisecond backoffs, as §2 assumes.
	if Delay(250) > 1e-5 {
		t.Fatal("250 m delay should be well under 10µs")
	}
}
