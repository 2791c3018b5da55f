package phy

// Pools holds the channel's recyclable per-delivery objects — the
// signal and delivery free lists the transmit hot path draws from.
// Every channel has one; by default it is private (NewChannel allocates
// it), but a sweep worker can pass one Pools through ChannelConfig so
// consecutive runs on that worker reuse the same memory instead of
// re-growing a fresh free list per replication.
//
// Pooled objects carry no residual state: newSignal and
// scheduleDelivery reinitialize every field on reuse (a delivery finds
// its channel through its receiver), so sharing a pool across
// consecutive channels cannot change simulation results. A Pools must
// never be shared between channels that run concurrently — workers own
// theirs exclusively.
//
// Frames are not pooled: one frame is shared by every signal of its
// transmission, so only the collector knows its last reader — and
// there is one per transmission, not one per delivery.
type Pools struct {
	sig []*signal
	del []*delivery

	// Radio arena: the channel's per-node state — the Radio structs and
	// the struct-of-arrays hot scalars (phase, transmit power, energy
	// meter) — lives in these contiguous slices, handed out by
	// radioArena. A sweep worker's consecutive runs reuse the same
	// backing arrays (including each radio's warmed inAir/txLive
	// capacity) instead of allocating N small objects per cell.
	radios   []Radio
	states   []State
	txPow    []float64
	energies []Energy
}

// NewPools returns an empty pool set, ready to hand to ChannelConfig.
func NewPools() *Pools { return &Pools{} }

// maxFreeObjects bounds the signal and delivery free lists; anything
// beyond the cap is left for the garbage collector.
const maxFreeObjects = 1 << 14

// newSignal takes a signal struct from the free list (or allocates) and
// initializes it for one delivery.
func (p *Pools) newSignal(f *frame, dbm, mw float64) *signal {
	var s *signal
	if n := len(p.sig); n > 0 {
		s = p.sig[n-1]
		p.sig = p.sig[:n-1]
	} else {
		s = &signal{}
	}
	*s = signal{frame: f, powerDBm: dbm, powerMW: mw}
	return s
}

// releaseSignal returns a signal to the free list once its end event
// has fired; by then no radio holds a reference (signalEnd removed it
// from the receiver's in-air set, or powerDown already dropped it).
func (p *Pools) releaseSignal(s *signal) {
	s.frame = nil
	if len(p.sig) < maxFreeObjects {
		p.sig = append(p.sig, s)
	}
}

// newDelivery takes a delivery from the free list (or allocates one
// with its callback pre-bound).
func (p *Pools) newDelivery() *delivery {
	var d *delivery
	if n := len(p.del); n > 0 {
		d = p.del[n-1]
		p.del = p.del[:n-1]
	} else {
		d = &delivery{}
		d.fn = d.fire
	}
	return d
}

// radioArena returns cleared per-node state slices of length n,
// reusing the pool's backing arrays when they are large enough. Radio
// structs keep their inAir/txLive backing across reuse (warm capacity);
// every other field is zeroed, so a recycled arena is indistinguishable
// from a fresh one.
func (p *Pools) radioArena(n int) ([]Radio, []State, []float64, []Energy) {
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
	for i := range p.radios {
		r := &p.radios[i]
		inAir, txLive := r.inAir[:0], r.txLive[:0]
		*r = Radio{inAir: inAir, txLive: txLive}
	}
	return p.radios, p.states, p.txPow, p.energies
}

// releaseDelivery returns a finished delivery to the free list.
func (p *Pools) releaseDelivery(d *delivery) {
	d.rcv, d.sig = nil, nil
	if len(p.del) < maxFreeObjects {
		p.del = append(p.del, d)
	}
}
