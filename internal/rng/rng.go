// Package rng is the repository's one random generator. A master seed
// is split into independent child streams (per node, per protocol
// layer, per experiment replication) by hashing the seed with a list of
// positional labels, so adding a consumer of randomness in one part of
// the system does not perturb the draws seen by another — a property
// plain sequential use of one rand.Rand does not have.
//
// Every stream, derived or drawn from, is SplitMix64 (Steele, Lea,
// Flood; JDK 8): eight bytes of state, passes BigCrush, and a 2^64
// period orders of magnitude beyond any simulation's draw count. The
// state after n draws is Derive(seed, labels) + n·gamma, so one word
// names both where a stream came from and how far it has been
// consumed; a Tracker keeps those words in creation order, which is
// what makes a run's entire randomness consumption a value snapshots
// can hash.
package rng

import "math/rand"

// gamma is SplitMix64's state increment per draw.
const gamma = 0x9e3779b97f4a7c15

// splitmix64 advances the state and returns the next output.
func splitmix64(state uint64) (uint64, uint64) {
	state += gamma
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Derive deterministically combines a parent seed with an arbitrary set
// of stream labels and returns a child seed. Derive(s, a, b) differs
// from Derive(s, b, a) and from Derive(s, a) — labels are positional.
func Derive(seed int64, labels ...uint64) int64 {
	state := uint64(seed) ^ 0x6a09e667f3bcc908 // golden offset keeps seed 0 usable
	var out uint64
	state, out = splitmix64(state)
	for _, l := range labels {
		state ^= l * gamma
		state, out = splitmix64(state)
	}
	return int64(out)
}

// source is one SplitMix64 stream behind a rand.Rand.
type source struct{ state uint64 }

func (s *source) Uint64() uint64 {
	var out uint64
	s.state, out = splitmix64(s.state)
	return out
}

func (s *source) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *source) Seed(seed int64) { s.state = uint64(seed) }

// New returns a stream seeded from the parent seed and labels via
// Derive. It is unaccounted: streams a simulation draws from while it
// runs come from the network's Tracker instead.
func New(seed int64, labels ...uint64) *rand.Rand {
	return rand.New(&source{state: uint64(Derive(seed, labels...))})
}

// Stream labels used across the repository, kept in one place so
// different subsystems never collide.
const (
	StreamTopology uint64 = 1 + iota // node placement
	StreamTraffic                    // flow endpoints, start jitter, payloads
	StreamMAC                        // MAC backoff slots
	StreamNet                        // network-layer backoff draws
	StreamFailure                    // duty-cycle failure process
	StreamChannel                    // fading draws
	StreamElection                   // election metric jitter
	StreamFault                      // fault-plane spec streams (jammer walk, link picks)
	StreamFuzz                       // scenario-fuzzer draws (generator, placements, mobility)
)

// ForNode derives a per-node, per-layer stream: same master seed and
// node id always yield the same stream regardless of how many nodes the
// simulation has or in which order they were built.
func ForNode(seed int64, layer uint64, nodeID int) *rand.Rand {
	return New(seed, layer, uint64(nodeID)+0x1000)
}

// chunkLen is how many streams share one arena allocation. A chunk is
// never reallocated, so the pointers handed to rand.New stay valid.
const chunkLen = 512

// Tracker is the ordered arena of one run's streams: New and ForNode
// derive exactly as the package-level functions do, and place the
// source by value in a chunk, so a stream costs its eight bytes and no
// allocation of its own. Visit walks the states in creation order,
// which is itself deterministic because stream creation order is part
// of the simulator construction path; two runs whose trackers visit
// equal have created the same streams and drawn the same number of
// times from each.
//
// A Tracker is not safe for concurrent use; like every other simulator
// component it belongs to exactly one run.
type Tracker struct {
	chunks [][]source
}

// NewTracker returns an empty arena.
func NewTracker() *Tracker { return &Tracker{} }

// New is the accounted form of the package-level New.
func (t *Tracker) New(seed int64, labels ...uint64) *rand.Rand {
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last]) == chunkLen {
		t.chunks = append(t.chunks, make([]source, 0, chunkLen))
		last++
	}
	c := append(t.chunks[last], source{state: uint64(Derive(seed, labels...))})
	t.chunks[last] = c
	return rand.New(&c[len(c)-1])
}

// ForNode is the accounted form of the package-level ForNode.
func (t *Tracker) ForNode(seed int64, layer uint64, nodeID int) *rand.Rand {
	return t.New(seed, layer, uint64(nodeID)+0x1000)
}

// Len reports how many streams have been created through the tracker.
func (t *Tracker) Len() int {
	if len(t.chunks) == 0 {
		return 0
	}
	return (len(t.chunks)-1)*chunkLen + len(t.chunks[len(t.chunks)-1])
}

// Visit calls fn with every stream's current state, in creation order.
func (t *Tracker) Visit(fn func(state uint64)) {
	for _, c := range t.chunks {
		for i := range c {
			fn(c[i].state)
		}
	}
}
