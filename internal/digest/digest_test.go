package digest

import "testing"

// TestDeterministic: the same write sequence always sums identically.
func TestDeterministic(t *testing.T) {
	feed := func() uint64 {
		h := New()
		h.Uint64(42)
		h.Int64(-7)
		h.Float64(3.5)
		h.Bool(true)
		h.Bytes([]byte("leader"))
		h.Bytes([]byte{1, 2, 3})
		return h.Sum()
	}
	if a, b := feed(), feed(); a != b {
		t.Fatalf("same sequence hashed differently: %#x vs %#x", a, b)
	}
}

// TestOrderSensitive: FNV-1a is a stream hash — permuting the write
// order must change the sum, or the state digests could not detect
// reordered queues.
func TestOrderSensitive(t *testing.T) {
	a := New()
	a.Uint64(1)
	a.Uint64(2)
	b := New()
	b.Uint64(2)
	b.Uint64(1)
	if a.Sum() == b.Sum() {
		t.Fatal("write order did not affect the sum")
	}
}

// TestFramingDistinct: values that share bytes under naive
// concatenation must still hash apart, because String and Bytes are
// length-prefixed.
func TestFramingDistinct(t *testing.T) {
	a := New()
	a.Bytes([]byte("ab"))
	a.Bytes([]byte("c"))
	b := New()
	b.Bytes([]byte("a"))
	b.Bytes([]byte("bc"))
	if a.Sum() == b.Sum() {
		t.Fatal("length framing failed: split point did not affect the sum")
	}
}

// TestBoolDistinct: true/false and present/absent markers differ.
func TestBoolDistinct(t *testing.T) {
	a := New()
	a.Bool(true)
	b := New()
	b.Bool(false)
	if a.Sum() == b.Sum() {
		t.Fatal("Bool(true) == Bool(false)")
	}
}

// TestFloatBitwise: Float64 hashes the IEEE bits, so -0.0 and +0.0
// are distinct states (they are distinct words in a snapshot).
func TestFloatBitwise(t *testing.T) {
	a := New()
	a.Float64(0.0)
	b := New()
	b.Float64(negZero())
	if a.Sum() == b.Sum() {
		t.Fatal("+0.0 and -0.0 hashed the same")
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}
