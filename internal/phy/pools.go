package phy

// Pools holds the channel's recyclable objects — the transmission free
// list the transmit hot path draws from, and the radio arena.
// Every channel has one; by default it is private (NewChannel allocates
// it), but a sweep worker can pass one Pools through ChannelConfig so
// consecutive runs on that worker reuse the same memory instead of
// re-growing a fresh free list per replication.
//
// Pooled objects carry no residual state: transmit and launch
// reinitialize every field and every signal a recycled transmission
// exposes, so sharing a pool across consecutive channels cannot change
// simulation results. A Pools must never be shared between channels
// that run concurrently — workers own theirs exclusively.
//
// A frame needs no pool of its own: it lives by value in its
// transmission, whose last trailing edge is the frame's last reader
// (a receiver that decodes it is lent a copy in the channel's receive
// buffer for the length of one listener call).
type Pools struct {
	// tx is the transmission free list. A recycled transmission keeps
	// its signal slab, which is what it costs to retain, so the list is
	// bounded by txSignals — the slab capacity it pins in total — rather
	// than by its length.
	tx        []*transmission
	txSignals int

	// Radio arena: the channel's per-node state — the Radio structs and
	// the struct-of-arrays hot scalars (phase, transmit power, energy
	// meter) — lives in these contiguous slices, handed out by
	// radioArena. A sweep worker's consecutive runs reuse the same
	// backing arrays (including each radio's warmed inAir capacity)
	// instead of allocating N small objects per cell.
	radios   []Radio
	states   []State
	txPow    []float64
	energies []Energy
}

// NewPools returns an empty pool set, ready to hand to ChannelConfig.
func NewPools() *Pools { return &Pools{} }

// maxFreeSignals bounds the signal capacity the transmission free list
// may pin: 3.5 MB of signals, ~700 transmissions at Figure-1 density.
// Anything beyond it is left for the garbage collector, so a sweep
// worker that ran one mega cell does not carry its footprint into every
// later one.
const maxFreeSignals = 1 << 16

// newTransmission takes a transmission from the free list (or allocates
// one with its callbacks pre-bound) with an n-signal slab whose contents
// are stale: the caller writes every signal it keeps.
func (p *Pools) newTransmission(n int) *transmission {
	var t *transmission
	if last := len(p.tx) - 1; last >= 0 {
		t = p.tx[last]
		p.tx[last] = nil
		p.tx = p.tx[:last]
		p.txSignals -= cap(t.signals)
	} else {
		t = &transmission{}
		t.leadFn, t.trailFn = t.fireLead, t.fireTrail
	}
	if cap(t.signals) < n {
		t.signals = make([]signal, n, n+n/4) // headroom: the next sender's neighbourhood differs
	}
	t.signals = t.signals[:n]
	t.lead, t.trail, t.armed = 0, 0, false
	return t
}

// releaseTransmission returns a transmission to the free list once its
// last trailing edge has fired; by then no radio points into its slab
// (signalEnd removed each signal from its receiver's in-air set, or a
// power-down already dropped it). The channel and the frame are cleared
// so a parked transmission pins neither a finished run nor a payload.
func (p *Pools) releaseTransmission(t *transmission) {
	t.ch, t.frame = nil, frame{}
	if p.txSignals+cap(t.signals) <= maxFreeSignals {
		p.tx = append(p.tx, t)
		p.txSignals += cap(t.signals)
	}
}

// radioArena returns cleared per-node state slices of length n,
// reusing the pool's backing arrays when they are large enough. Radio
// structs keep their inAir backing across reuse (warm capacity); every
// other field is zeroed, so a recycled arena is indistinguishable from a
// fresh one.
//
// The last run's radios are cleared first — all of them, including any
// this run does not reuse — with every inAir slot nilled, so an arena
// between runs pins none of that run's signal slabs or its channel.
func (p *Pools) radioArena(n int) ([]Radio, []State, []float64, []Energy) {
	for i := range p.radios {
		r := &p.radios[i]
		clear(r.inAir)
		*r = Radio{inAir: r.inAir[:0]}
	}
	if cap(p.radios) < n {
		p.radios = make([]Radio, n)
		p.states = make([]State, n)
		p.txPow = make([]float64, n)
		p.energies = make([]Energy, n)
	}
	p.radios = p.radios[:n]
	p.states = p.states[:n]
	p.txPow = p.txPow[:n]
	p.energies = p.energies[:n]
	return p.radios, p.states, p.txPow, p.energies
}
