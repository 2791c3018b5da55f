// Package sim is a miniature of the real kernel: just enough surface
// (Schedule/At/After/NewTimer/InitTimer, Handler and its Func adapter,
// a master stream) for the flow-aware rules to recognize entry points and
// sinks by ID suffix.
package sim

import (
	"math/rand"

	"flowmod/internal/rng"
)

// Time mirrors the real simulated-time scalar.
type Time float64

// Kernel is the mini event kernel.
type Kernel struct {
	queue []func()
	rng   *rand.Rand
}

// NewKernel seeds the master stream through rng, like the real
// internal/sim: only internal/rng may call a raw constructor.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rng.New(seed, "kernel")}
}

// Schedule enqueues f after d.
func (k *Kernel) Schedule(d Time, f func()) { k.queue = append(k.queue, f) }

// At enqueues f at absolute time t.
func (k *Kernel) At(t Time, f func()) { k.queue = append(k.queue, f) }

// After enqueues h after d.
func (k *Kernel) After(d Time, h Handler) { k.queue = append(k.queue, h.Fire) }

// Rand exposes the master stream.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Handler mirrors the real event handler: what an event fires.
type Handler interface{ Fire() }

// Func adapts a function to Handler.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Timer mirrors the real one-shot timer.
type Timer struct {
	k *Kernel
	h Handler
}

// InitTimer binds a timer to its handler in place.
func InitTimer(t *Timer, k *Kernel, h Handler) { *t = Timer{k: k, h: h} }

// NewTimer arms a timer; its callback is an event-handler entry point.
func NewTimer(k *Kernel, d Time, f func()) *Timer {
	k.Schedule(d, f)
	return &Timer{k: k}
}
