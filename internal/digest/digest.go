// Package digest provides the deterministic state fingerprint used by
// snapshot verification. A Hash is a streaming FNV-1a 64 accumulator
// with typed feed methods; every simulator component that participates
// in checkpoint verification implements Stater and folds its live state
// into one. The hash is not cryptographic — it only needs to make an
// accidental post-restore divergence essentially impossible to miss,
// while staying dependency-free and byte-order independent of the host.
package digest

import "math"

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash is a streaming FNV-1a 64-bit accumulator. The zero value is NOT
// ready to use; start from New.
type Hash uint64

// New returns a Hash initialised with the FNV-1a offset basis.
func New() Hash { return offset64 }

// Byte folds one byte.
func (h *Hash) Byte(b byte) {
	*h = (*h ^ Hash(b)) * prime64
}

// Uint64 folds v little-endian.
func (h *Hash) Uint64(v uint64) {
	for i := 0; i < 8; i++ {
		h.Byte(byte(v >> (8 * i)))
	}
}

// Int64 folds v via its two's-complement bits.
func (h *Hash) Int64(v int64) { h.Uint64(uint64(v)) }

// Int folds v as an int64.
func (h *Hash) Int(v int) { h.Uint64(uint64(int64(v))) }

// Float64 folds the IEEE-754 bit pattern of v, so that -0 and +0 or two
// NaN payloads hash differently exactly when their bits differ.
func (h *Hash) Float64(v float64) { h.Uint64(math.Float64bits(v)) }

// Bool folds b as one byte.
func (h *Hash) Bool(b bool) {
	if b {
		h.Byte(1)
	} else {
		h.Byte(0)
	}
}

// Bytes folds b length-prefixed.
func (h *Hash) Bytes(b []byte) {
	h.Int(len(b))
	for _, c := range b {
		h.Byte(c)
	}
}

// Sum returns the accumulated value.
func (h Hash) Sum() uint64 { return uint64(h) }

// Stater is implemented by simulator components that can fold their
// mutable state into a fingerprint. Implementations must iterate any
// maps in sorted key order and must not mutate the component.
type Stater interface {
	DigestState(h *Hash)
}
