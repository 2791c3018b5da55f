// Package fault mirrors the fault plane: a stream built inside a helper
// crosses no parameter list, so faultrand cannot see it, but globalrand
// flags its raw constructor.
package fault

import "math/rand"

// stream builds a fixed-seed generator outside internal/rng.
func stream() *rand.Rand { return rand.New(rand.NewSource(7)) }

// Jitter draws from the laundered stream.
func Jitter() float64 { return stream().Float64() }
