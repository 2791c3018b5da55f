// Package proto carries the violating shapes the flow-aware rules must
// catch across function and package boundaries — each one invisible to
// the syntactic predecessors.
package proto

import (
	"math/rand"

	"flowmod/internal/metrics"
	"flowmod/internal/rng"
	"flowmod/internal/sim"
)

// mapKeys collects keys with the sanctioned idiom but never sorts, so
// its return value carries map-iteration order out of the function.
func mapKeys(m map[int]float64) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// FlushBad leaks map order into the event schedule through mapKeys: the
// range is over a plain slice, which the syntactic rule ignores.
func FlushBad(k *sim.Kernel, m map[int]float64) {
	for _, id := range mapKeys(m) {
		k.At(sim.Time(id), func() {})
	}
}

func write(j *metrics.Journal, name string) { j.Write(metrics.Record{Name: name}) }
func relay(j *metrics.Journal, name string) { write(j, name) }

// JournalBad reaches the journal two calls deep from a map range; the
// name "relay" matches no effect heuristic.
func JournalBad(j *metrics.Journal, m map[string]int) {
	for name := range m {
		relay(j, name)
	}
}

// mkStream forwards its seed argument into a raw constructor outside
// internal/rng: flagged at the constructor whatever its callers feed
// it, because no tracker sees the stream it builds.
func mkStream(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// BadJitter supplies a fixed seed through the helper.
func BadJitter() float64 { return mkStream(42).Float64() }

// DerivedJitter derives the seed first; the stream is a function of the
// master seed but still untracked, so the helper's constructor stays
// the one finding.
func DerivedJitter(seed int64) float64 { return mkStream(rng.Derive(seed, "jitter")).Float64() }

// TrackedJitter draws from a stream rng builds: clean.
func TrackedJitter(seed int64) float64 { return rng.New(seed, "jitter").Float64() }

// hits is package-level mutable state written from handler context.
var hits int

// Listener is a delivery handler (dispatch entry point by method name).
type Listener struct{ G *metrics.Gauge }

// OnReceive runs inside events; the hits++ write is cross-shard state.
func (l *Listener) OnReceive(rssiDBm float64) {
	hits++
	l.G.Set(rssiDBm)
}

// pending is written by a scheduled callback.
var pending int

// Arm schedules a closure that mutates package state.
func Arm(k *sim.Kernel) {
	k.Schedule(1, func() { pending++ })
}

// deliveries is handler-written too; its directive cannot waive the
// finding, so it is stale.
var deliveries int

// Meter is a send-report handler.
type Meter struct{}

// OnSent counts completions.
func (Meter) OnSent(ok bool) {
	//lint:ignore sharedstate run-scoped counter, merged single-threaded after the run
	deliveries++
}

// Beacon re-arms itself from handler context, dragging the kernel
// singleton into the handler-reachable set.
type Beacon struct{ K *sim.Kernel }

// OnDeliver schedules the next emission.
func (b *Beacon) OnDeliver(v float64) {
	b.K.Schedule(1, func() { b.emit() })
}

func (b *Beacon) emit() {}

// SpawnBad launches a goroutine outside the sanctioned engines; the
// goroutine rule must flag it even though the identical shape in
// internal/sweep is exempt.
func SpawnBad(done chan struct{}) {
	go func() { close(done) }()
}

// fired is written by a handler's Fire method, which nothing in this
// module calls: the kernel dispatches to it through sim.Handler.
var fired int

// Bid is a per-packet state that is its own timer's handler.
type Bid struct{ T sim.Timer }

// Bind hands the bid to its timer as a handler, not as a function value.
func (b *Bid) Bind(k *sim.Kernel) { sim.InitTimer(&b.T, k, b) }

// Fire runs inside an event; the fired++ write is cross-shard state.
func (b *Bid) Fire() { fired++ }

// wrapped is written by a closure scheduled through the Func adapter.
var wrapped int

// ArmWrapped schedules a Func-wrapped closure; the conversion must not
// hide the closure from the scheduler's entry points.
func ArmWrapped(k *sim.Kernel) {
	k.Schedule(1, sim.Func(func() { wrapped++ }))
}

// later is written by a closure queued through the handler-taking After.
var later int

// ArmAfter queues a Func-wrapped closure with After, the relative entry
// a pointer handler takes; the closure is an entry point all the same.
func ArmAfter(k *sim.Kernel) {
	k.After(1, sim.Func(func() { later++ }))
}
