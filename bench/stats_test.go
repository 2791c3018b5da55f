package main

import "testing"

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

// TestPercentileTenBeyond: a tail percentile is reported only with at
// least ten samples beyond it.
func TestPercentileTenBeyond(t *testing.T) {
	if _, err := percentile(ramp(99), 0.9); err == nil {
		t.Error("p90 of 99 samples was reported")
	}
	p, err := percentile(ramp(100), 0.9)
	if err != nil || p != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", p, err)
	}
	if _, err := percentile(ramp(200), 0.99); err == nil {
		t.Error("p99 of 200 samples was reported")
	}
	if p, err := percentile(ramp(200), 0.9); err != nil || p != 180 {
		t.Errorf("p90 of 1..200 = %v, %v; want 180", p, err)
	}
	if _, err := percentile(ramp(200), 0.5); err == nil {
		t.Error("percentile accepted q=0.5; the median has its own function")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
}

// TestQuartilesMatchPython pins the method to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(ramp(10)); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles(ramp(3)); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v, %v", q1, q3)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v, %v", q1, q3)
	}
}

// TestTailLeavesUnset: values.tail records nothing when the rule
// refuses the percentile, so the metric reads 0 rather than a guess.
func TestTailLeavesUnset(t *testing.T) {
	v := values{}
	v.tail("x", ramp(50), 0.9)
	if _, ok := v["x"]; ok {
		t.Error("p90 of 50 samples was recorded")
	}
	v.tail("x", ramp(150), 0.9)
	if m := v["x"]; m.N != 150 || m.Value != 135 {
		t.Errorf("p90 of 1..150 recorded as %+v", m)
	}
}
