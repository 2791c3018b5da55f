package phy

import (
	"math"
	"math/rand"
	"slices"

	"routeless/internal/geo"
	"routeless/internal/metrics"
	"routeless/internal/packet"
	"routeless/internal/propagation"
	"routeless/internal/sim"
)

// link is one precomputed edge of the broadcast topology: a receiver
// within the interference cutoff of a transmitter, with the geometry
// and deterministic propagation math a transmission needs, computed
// once instead of per frame.
type link struct {
	idx int32 // receiver node id
	// ord is this link's place when the transmitter's links are sorted
	// by (delay, idx): where its signal goes in a transmission's slab so
	// that the slab comes out in firing order. It lives in the padding
	// after idx, so caching the order costs no memory.
	ord    int32
	meanMW float64  // deterministic (unfaded) receive power, mW
	delay  sim.Time // propagation delay over the transmitter→receiver distance
}

// Channel is the shared broadcast medium. It knows every radio's
// position, computes per-receiver power through free-space path loss
// and, when fading is on, a Rayleigh draw, and fires each receiver's
// signal start and end as its own event at the true propagation delay
// (see transmission).
//
// The hot path — transmit — runs off a per-node link cache: the
// id-ordered receivers within the cutoff, with mean power, propagation
// delay and firing order precomputed. Caches build lazily on a node's
// first transmission and are invalidated per node by MoveTo and
// SetLinkOffset, so static topologies (the paper's scenarios) pay the
// grid query, the id and firing-order passes, and the path-loss math
// (in milliwatts, like every power on the run path) once per transmitter.
type Channel struct {
	model  *propagation.FreeSpace
	fading bool       // multiply each link's meanMW by a Rayleigh draw per frame
	frng   *rand.Rand // fading draws
	grid   *geo.Grid

	// radios is the contiguous radio arena, and states/energies are the
	// struct-of-arrays hot per-node scalars hoisted out of the Radio
	// struct: transceiver phase (up/down, rx/tx) and the energy meter,
	// both indexed by node id. The three slices come from one
	// Pools.radioArena call, so a sweep worker's consecutive runs reuse
	// the same backing memory.
	radios   []Radio
	states   []State
	energies []Energy

	// params is the single shared radio configuration every Radio reads
	// through its channel, and power the single shared draw profile every Energy points
	// at; txMW and the thresholds below are the linear-domain images of
	// the dB parameters, converted once here so link building, fan-out,
	// decode and SINR compare milliwatts without per-node cached copies.
	// All frozen after NewChannel.
	params       Params
	power        Power
	txMW         float64 // params.TxPowerDBm in mW
	rxThreshMW   float64 // params.RxThreshDBm in mW
	noiseMW      float64 // params.NoiseFloorDBm in mW
	csThreshMW   float64 // params.CSThreshDBm in mW
	captureRatio float64 // params.CaptureDB as a linear power ratio

	// cutoff is the distance beyond which a transmission cannot affect
	// a receiver even after fading; signals past it are not scheduled.
	cutoff float64

	// kernel fires every signal edge; pools recycles the transmissions
	// that carry them.
	kernel *sim.Kernel
	pools  *Pools

	// inFlight lists the transmissions with an edge still to fire, in
	// launch order — a run-deterministic order for DigestState, which
	// must cover the edges the kernel's pending keys no longer do.
	inFlight []*transmission

	// uid counts frames born on this channel, transmissions and jammer
	// bursts alike (UIDs are only ever compared for equality and zero).
	uid uint64

	// rxBuf is the one packet a decode is lent in: Radio.signalEnd copies
	// the frame into it for the listener call and zeroes it afterwards.
	// Decodes never nest (each is one trailing-edge event), so one buffer
	// per channel serves every receiver.
	rxBuf packet.Packet

	stats chanCounters

	// pendingStarts counts deliveries scheduled whose leading edge has
	// not yet reached the receiver — the channel's term of the
	// phy-delivery conservation law.
	pendingStarts int

	scratch []int

	// links[i] caches node i's outgoing edges; linkValid[i] marks the
	// entry current. noCache forces a rebuild on every transmission —
	// the recompute-every-time reference the coherence tests compare
	// against.
	links     [][]link
	linkValid []bool
	noCache   bool
	// linkCap, when positive, bounds how many nodes may hold a valid
	// link cache at once: the channel evicts its least-recently built
	// entry FIFO-style past the cap. Rebuilds are bit-identical, so
	// eviction changes memory and time, never results.
	linkCap int
	// cached is the FIFO of nodes whose link cache was built, consulted
	// only when cache residency is bounded (linkCap > 0). cachedHead
	// indexes the oldest live entry; the slice compacts when the dead
	// prefix dominates.
	cached     []int32
	cachedHead int

	// offsets holds the fault plane's per-link shadowing: the linear
	// factor SetLinkOffset's dB offset becomes, for specific directed
	// links. Nil (the common case) means the power math runs exactly the
	// pre-offset expressions, preserving float bit-identity.
	offsets map[linkKey]float64
}

// linkKey identifies one directed link for the offset table.
type linkKey struct{ from, to int32 }

// ChannelStats is the plain-uint64 snapshot view of medium-wide counters.
// The channel is a singleton, not a population, so it keeps a view where
// the per-node layers have Count; the benchmark's ladder reads
// Stats().Deliveries.
type ChannelStats struct {
	Transmissions uint64 // frames put on the air
	Deliveries    uint64 // (radio, frame) pairs scheduled
}

// chanCounters is the live counter storage behind ChannelStats.
type chanCounters struct {
	transmissions metrics.Counter
	deliveries    metrics.Counter
}

// ChannelConfig configures the medium.
type ChannelConfig struct {
	// Model is the path-loss model; nil means propagation.NewFreeSpace().
	Model *propagation.FreeSpace
	// Fading scales every link's power by a Rayleigh draw per frame.
	Fading bool
	// FadeMarginDB widens the interference cutoff to admit fading
	// upswings; ignored without Fading.
	FadeMarginDB float64
	// Rng drives fading; may be nil without Fading.
	Rng *rand.Rand
	// noLinkCache disables the per-node link cache: every transmission
	// re-queries the spatial grid and recomputes propagation math. This
	// is the slow reference path; only the package's coherence tests
	// set it, to prove the cached channel bit-for-bit equivalent to it.
	noLinkCache bool
	// LinkCacheCap, when positive, bounds the number of per-node link
	// caches the run keeps live at once (FIFO eviction). At mega scale
	// an unbounded cache costs kilobytes per transmitter that ever
	// spoke; a cap keeps link-cache memory O(active transmitters). Zero
	// means unbounded (the historical behavior).
	// Eviction only forces bit-identical rebuilds — results never
	// change.
	LinkCacheCap int
	// Pools, when non-nil, supplies an externally owned transmission
	// free list (a sweep worker's reusable run context). Nil means the
	// channel allocates private pools — identical behavior, colder
	// memory.
	Pools *Pools
}

// CutoffFor returns the interference cutoff a channel over rect with
// the given radio parameters will use: the distance beyond which a
// transmission cannot affect a receiver, against the carrier-sense
// threshold widened by fadeMarginDB (pass 0 without fading). Exposed so
// the benchmark's geo probe queries at the radius the channel uses.
func CutoffFor(model *propagation.FreeSpace, params Params, fadeMarginDB float64, rect geo.Rect) float64 {
	cutoff := propagation.RangeFor(model, params.TxPowerDBm, params.CSThreshDBm-fadeMarginDB, 1,
		rect.Width()+rect.Height()+1)
	if cutoff <= 0 {
		cutoff = rect.Width() + rect.Height()
	}
	return cutoff
}

// NewChannel builds a medium over the given node positions inside rect.
// Radios are created eagerly, one per position, all with params; use
// Radio(i) to retrieve them.
func NewChannel(k *sim.Kernel, rect geo.Rect, positions []geo.Point, params Params, cfg ChannelConfig) *Channel {
	model := cfg.Model
	if model == nil {
		model = propagation.NewFreeSpace()
	}
	margin := cfg.FadeMarginDB
	if !cfg.Fading {
		margin = 0
	}
	cutoff := CutoffFor(model, params, margin, rect)
	cell := cutoff / 2
	if cell <= 0 || cell > rect.Width() {
		cell = rect.Width()/4 + 1
	}
	pools := cfg.Pools
	if pools == nil {
		pools = NewPools()
	}
	ch := &Channel{
		kernel:    k,
		pools:     pools,
		model:     model,
		fading:    cfg.Fading,
		frng:      cfg.Rng,
		grid:      geo.NewGrid(rect, cell, positions),
		cutoff:    cutoff,
		links:     make([][]link, len(positions)),
		linkValid: make([]bool, len(positions)),
		noCache:   cfg.noLinkCache,
		linkCap:   cfg.LinkCacheCap,
	}
	ch.params = params
	ch.power = DefaultPower()
	ch.txMW = propagation.DBmToMilliwatt(params.TxPowerDBm)
	ch.rxThreshMW = propagation.DBmToMilliwatt(params.RxThreshDBm)
	ch.noiseMW = propagation.DBmToMilliwatt(params.NoiseFloorDBm)
	ch.csThreshMW = propagation.DBmToMilliwatt(params.CSThreshDBm)
	ch.captureRatio = propagation.DBmToMilliwatt(params.CaptureDB)
	ch.radios, ch.states, ch.energies = pools.radioArena(len(positions))
	pools.orderScratch(len(positions))
	for i := range positions {
		r := &ch.radios[i]
		r.id = packet.NodeID(i)
		r.channel = ch
		ch.states[i] = StateIdle
		ch.energies[i] = Energy{power: &ch.power, state: StateIdle}
	}
	return ch
}

// Radio returns the transceiver at position index i.
func (c *Channel) Radio(i int) *Radio { return &c.radios[i] }

// NumRadios returns the number of attached transceivers.
func (c *Channel) NumRadios() int { return len(c.radios) }

// Position returns node i's location.
func (c *Channel) Position(i int) geo.Point { return c.grid.At(i) }

// MoveTo relocates node i — the mobility extension. Transmissions
// already in flight are unaffected (their powers were computed at
// transmit time); subsequent transmissions use the new position.
//
// Cache invalidation contract: moving node i invalidates (a) i's own
// link cache and (b) the cache of every node within the cutoff of i's
// old or new position — exactly the transmitters whose receiver set or
// link math could mention i. Valid caches always describe current
// positions because any node that moved had its own cache invalidated
// by its own MoveTo.
func (c *Channel) MoveTo(i int, p geo.Point) {
	if c.noCache {
		c.grid.MoveTo(i, p)
		return
	}
	c.scratch = c.grid.WithinRadius(c.scratch[:0], c.grid.At(i), c.cutoff, i)
	for _, id := range c.scratch {
		c.linkValid[id] = false
	}
	c.grid.MoveTo(i, p)
	c.scratch = c.grid.WithinRadius(c.scratch[:0], p, c.cutoff, i)
	for _, id := range c.scratch {
		c.linkValid[id] = false
	}
	c.linkValid[i] = false
}

// Stats returns medium-wide counters (jammer bursts count as
// deliveries).
func (c *Channel) Stats() ChannelStats {
	return ChannelStats{
		Transmissions: c.stats.transmissions.Value(),
		Deliveries:    c.stats.deliveries.Value(),
	}
}

// RegisterMetrics registers the medium-wide counters and the pending
// leading-edge count, then the radios' counter blocks as one phy.*
// population and the in-flight signal count.
func (c *Channel) RegisterMetrics(reg *metrics.Registry) {
	reg.Observe("chan.transmissions", &c.stats.transmissions)
	reg.Observe("chan.deliveries", &c.stats.deliveries)
	reg.Func("chan.pending_starts", func() uint64 { return uint64(c.pendingStarts) })
	reg.Population(&radioTable, len(c.radios), func(i int) metrics.Block {
		return metrics.Block{Table: &radioTable, Counters: c.radios[i].stats[:]}
	})
	reg.Func("phy.in_air", func() uint64 {
		var n uint64
		for i := range c.radios {
			n += uint64(len(c.radios[i].inAir))
		}
		return n
	})
}

// MeanPowerAt returns the deterministic (unfaded) receive power in dBm
// between two node indices — used by tests and by range queries.
func (c *Channel) MeanPowerAt(from, to int) float64 {
	d := c.grid.At(from).Dist(c.grid.At(to))
	return propagation.MilliwattToDBm(c.linkGain(from, to, c.txMW*c.model.Gain(d)))
}

// SetLinkOffset applies an extra deterministic gain of db decibels to
// the directed link from→to (negative values attenuate) — the fault
// plane's per-link shadowing hook. A zero offset removes the entry.
// The transmitter's link cache is invalidated; frames already in flight
// keep the powers they were computed with, matching MoveTo semantics.
func (c *Channel) SetLinkOffset(from, to int, db float64) {
	if db == 0 {
		delete(c.offsets, linkKey{int32(from), int32(to)})
	} else {
		if c.offsets == nil {
			c.offsets = make(map[linkKey]float64)
		}
		c.offsets[linkKey{int32(from), int32(to)}] = propagation.DBmToMilliwatt(db)
	}
	c.linkValid[from] = false
}

// LinkOffset returns the current extra gain on from→to in dB (0 if none).
func (c *Channel) LinkOffset(from, to int) float64 {
	if f, ok := c.offsets[linkKey{int32(from), int32(to)}]; ok {
		return propagation.MilliwattToDBm(f)
	}
	return 0
}

// linkGain folds any fault-plane offset into the deterministic receive
// power p (mW). The nil-map fast path returns p untouched — not even
// p·1 is computed — so runs without link faults stay float-bit-identical
// to the pre-offset code.
func (c *Channel) linkGain(from, to int, p float64) float64 {
	if c.offsets == nil {
		return p
	}
	if f, ok := c.offsets[linkKey{int32(from), int32(to)}]; ok {
		return p * f
	}
	return p
}

// buildLinks computes node src's outgoing edges: receivers within the
// cutoff in ascending id order (so fading draws stay reproducible),
// with the same power (txMW·Gain(d)) and delay expressions the uncached
// path evaluates — the cache must be bit-for-bit equivalent, not merely
// approximately right — and each link's place in firing order. The
// receiver count is known before the first link is written, so the list
// is sized once: a cold build allocates it in one piece, and a rebuild
// that fits the old list allocates nothing. Neither order takes a
// comparison sort: ids come back from a bitset, ranks from a counting
// pass (idBits, keySorter, both in the channel's Pools).
func (c *Channel) buildLinks(src int) []link {
	pos := c.grid.At(src)
	c.scratch = c.grid.WithinRadius(c.scratch[:0], pos, c.cutoff, src)
	c.pools.ids.sort(c.scratch)
	ls := c.links[src][:0]
	if cap(ls) < len(c.scratch) {
		ls = make([]link, 0, len(c.scratch))
	}
	order := slices.Grow(c.pools.keys[:0], len(c.scratch))
	for i, idx := range c.scratch {
		d := pos.Dist(c.grid.At(idx))
		l := link{
			idx:    int32(idx),
			meanMW: c.linkGain(src, idx, c.txMW*c.model.Gain(d)),
			delay:  sim.Time(propagation.Delay(d)),
		}
		ls = append(ls, l)
		// A non-negative float32's bits order as the float does, so one
		// integer sort of delay<<32|i ranks the links by (delay, idx).
		// Delays that differ only beyond float32 precision come out in
		// idx order; launch's pass on the exact keys corrects those.
		order = append(order, uint64(math.Float32bits(float32(l.delay)))<<32|uint64(i))
	}
	for rank, key := range c.pools.ranks.sort(order) {
		ls[uint32(key)].ord = int32(rank)
	}
	c.pools.keys = order
	c.links[src] = ls
	c.linkValid[src] = true
	if c.linkCap > 0 && !c.noCache {
		c.boundCache(src)
	}
	return ls
}

// boundCache records src in the cache-residency FIFO and evicts the
// oldest entries past the channel's cap. An evicted node's next
// transmission rebuilds its links bit-identically, so the bound trades
// rebuild time for O(linkCap) cache memory. Entries can be stale
// (invalidated by MoveTo/SetLinkOffset, or re-cached later in the FIFO);
// evicting a stale entry is a cheap no-op.
func (c *Channel) boundCache(src int) {
	c.cached = append(c.cached, int32(src))
	for len(c.cached)-c.cachedHead > c.linkCap {
		old := c.cached[c.cachedHead]
		c.cachedHead++
		if int(old) != src && c.linkValid[old] {
			c.linkValid[old] = false
			c.links[old] = nil
		}
	}
	// Compact once the dead prefix dominates, keeping the FIFO's
	// footprint proportional to the cap rather than to traffic history.
	if c.cachedHead > len(c.cached)/2 && c.cachedHead > 32 {
		n := copy(c.cached, c.cached[c.cachedHead:])
		c.cached = c.cached[:n]
		c.cachedHead = 0
	}
}

// transmit fans a frame out to every radio within the cutoff range and
// returns the transmission carrying it, nil when nobody can sense it.
// Receivers are visited in id order so fading draws are reproducible,
// and number their leading edges in that order; each signal is written
// at its link's cached place in firing order.
//
// pkt is copied once per transmission, not once per receiver: launch
// freezes it into a frame every signal of the transmission shares, and
// only a receiver that decodes the frame copies it again, into the
// channel's receive buffer (Radio.signalEnd) — no allocation either way.
func (c *Channel) transmit(src *Radio, pkt *packet.Packet, dur sim.Time) *transmission {
	srcIdx := int(src.id)
	c.stats.transmissions.Inc()
	if pkt.UID == 0 {
		// Assign once per frame: ARQ retransmissions keep their UID so
		// receivers can suppress duplicates of the same frame.
		c.uid++
		pkt.UID = c.uid
	}
	ls := c.links[srcIdx]
	if c.noCache || !c.linkValid[srcIdx] {
		ls = c.buildLinks(srcIdx)
	}
	now := c.kernel.Now()
	seq := c.kernel.Seq()
	t := c.pools.newTransmission(len(ls))
	sigs := t.signals
	for i := range ls {
		l := &ls[i]
		// Every in-cutoff receiver takes its fading draw, sensed or not,
		// so the stream advances the same whatever the draws were; the
		// unit-mean power factor needs no guard, as 0·meanMW is unsensed.
		pMW := l.meanMW
		if c.fading {
			pMW *= c.frng.ExpFloat64()
		}
		if pMW < c.csThreshMW {
			sigs[l.ord].rcv = -1 // too weak to sense or corrupt: not scheduled
			continue
		}
		start := now + l.delay
		sigs[l.ord] = signal{
			rcv:     l.idx,
			lead:    sim.EventKey{At: start, Seq: seq},
			trail:   sim.EventKey{At: start + dur},
			powerMW: pMW,
		}
		seq++
	}
	if kept := int(seq - c.kernel.Seq()); kept < len(sigs) {
		n := 0
		for i := range sigs {
			if sigs[i].rcv >= 0 {
				sigs[n] = sigs[i]
				n++
			}
		}
		t.signals = sigs[:kept]
	}
	return c.launch(t, pkt)
}

// transmission is one frame on the air: every receiver's signal, by
// value in one slab sorted in firing order, walked by two cursors. The
// leading-edge cursor is armed at launch; the trailing-edge cursor by
// the first leading edge, since a trailing edge takes its sequence
// number when its leading edge fires. Each cursor holds one kernel event
// (sim.AtCursor), so the heap carries a transmission's next two edges,
// not all of them — and every edge still fires as its own event under
// the (time, sequence number) key a per-receiver event would have had.
//
// A receiver's inAir and rx point into the slab; the trailing cursor
// recycles the transmission after the last trailing edge, by when no
// radio refers to it (signalEnd or a power-down dropped the pointers).
type transmission struct {
	ch      *Channel
	frame   frame // by value: the last trailing edge is its last reader
	signals []signal
	lead    int  // signals[:lead] have started
	trail   int  // signals[:trail] have ended
	armed   bool // the trailing cursor is queued, at signals[trail]
}

// leadEdge and trailEdge are a transmission as the handler of its
// leading-edge and trailing-edge cursors: conversions of one pointer,
// so arming either cursor allocates nothing.
type (
	leadEdge  transmission
	trailEdge transmission
)

// launch puts t on the air: orders the slab, takes the leading edges'
// sequence numbers, freezes pkt and arms the leading cursor.
//
// A sender's slab arrives sorted by (delay, receiver id), but edges fire
// by (now+delay, sequence number), and sequence numbers follow receiver
// id. The two orders differ only where unequal delays round to one
// arrival time (late in a long run, or below float32 precision in
// buildLinks' sort): there the nearer receiver must not fire first if
// its id is higher. One insertion pass on the exact keys restores that;
// it moves nothing otherwise. Trailing edges need no pass: lead.At+dur
// is monotone in lead.At and their numbers are taken in firing order.
func (c *Channel) launch(t *transmission, pkt *packet.Packet) *transmission {
	sigs := t.signals
	if len(sigs) == 0 {
		c.pools.releaseTransmission(t)
		return nil
	}
	for i := 1; i < len(sigs); i++ {
		if !sigs[i].lead.Before(sigs[i-1].lead) {
			continue
		}
		s, j := sigs[i], i
		for ; j > 0 && s.lead.Before(sigs[j-1].lead); j-- {
			sigs[j] = sigs[j-1]
		}
		sigs[j] = s
	}
	c.kernel.ReserveSeq(len(sigs))
	c.stats.deliveries.Add(uint64(len(sigs)))
	c.pendingStarts += len(sigs)
	t.ch, t.frame = c, frame{pkt: *pkt}
	c.inFlight = append(c.inFlight, t)
	c.kernel.AtCursor(sigs[0].lead, (*leadEdge)(t))
	return t
}

// Fire is a leading edge: take the trailing edge's sequence number,
// move on to the next leading edge, then hand the signal to the
// receiver.
func (e *leadEdge) Fire() {
	t := (*transmission)(e)
	c := t.ch
	s := &t.signals[t.lead]
	t.lead++
	c.pendingStarts--
	s.trail.Seq = c.kernel.ReserveSeq(1)
	if !t.armed {
		// The first leading edge — or a trailing cursor that caught up
		// with this one, when airtime is shorter than the spread of
		// propagation delays.
		t.armed = true
		c.kernel.AtCursor(s.trail, (*trailEdge)(t))
	}
	if t.lead < len(t.signals) {
		c.kernel.Rekey(t.signals[t.lead].lead)
	}
	c.radios[s.rcv].signalStart(s)
}

// Fire is a trailing edge: finish reception, then move on to the next
// signal that has started, or recycle after the last.
func (e *trailEdge) Fire() {
	t := (*transmission)(e)
	c := t.ch
	s := &t.signals[t.trail]
	t.trail++
	if t.trail < t.lead {
		c.kernel.Rekey(t.signals[t.trail].trail)
	} else {
		t.armed = false // caught up with the leading cursor, or done
	}
	c.radios[s.rcv].signalEnd(s, &t.frame)
	if t.trail == len(t.signals) {
		i := slices.Index(c.inFlight, t)
		c.inFlight = slices.Delete(c.inFlight, i, i+1)
		c.pools.releaseTransmission(t)
	}
}

// InjectInterference radiates an interference-only burst of duration
// dur from an arbitrary position — the fault plane's roaming jammer.
// The burst is launched like any transmission so carrier sensing, SINR
// corruption, and the phy conservation laws all account for it, but its
// signals are born aborted: they raise the noise floor
// and hold the medium busy without ever decoding. Power is the
// deterministic mean (no fading draw), so a jammer never perturbs the
// frame fading stream; reach is bounded by the channel's interference
// cutoff. Returns how many radios the burst was scheduled at.
func (c *Channel) InjectInterference(pos geo.Point, txDBm float64, dur sim.Time) int {
	c.scratch = c.grid.WithinRadius(c.scratch[:0], pos, c.cutoff, -1)
	c.pools.ids.sort(c.scratch)
	c.uid++
	now := c.kernel.Now()
	seq := c.kernel.Seq()
	t := c.pools.newTransmission(len(c.scratch))
	sigs := t.signals[:0]
	txMW := propagation.DBmToMilliwatt(txDBm)
	for _, idx := range c.scratch {
		d := pos.Dist(c.grid.At(idx))
		pMW := txMW * c.model.Gain(d)
		if pMW < c.csThreshMW {
			continue
		}
		start := now + sim.Time(propagation.Delay(d))
		sigs = append(sigs, signal{
			rcv:     int32(idx),
			aborted: true,
			lead:    sim.EventKey{At: start, Seq: seq},
			trail:   sim.EventKey{At: start + dur},
			powerMW: pMW,
		})
		seq++
	}
	// A jammer has no link cache to take the firing order from: the slab
	// is in id order and launch's pass sorts it outright, which a burst
	// is rare and small enough (~100 radios) to afford.
	t.signals = sigs
	c.launch(t, &packet.Packet{
		Kind:   packet.KindJam,
		From:   packet.None,
		To:     packet.Broadcast,
		Origin: packet.None,
		Target: packet.None,
		UID:    c.uid,
	})
	return len(sigs)
}

// NeighborIDs appends the ids within node i's deterministic decode
// range to dst, sorted ascending — the neighbor view fault injection
// uses to pick links worth degrading. Offsets installed through
// SetLinkOffset do not shrink this view: it describes the underlying
// topology, not the currently faulted one.
func (c *Channel) NeighborIDs(dst []int, i int) []int {
	ids := c.grid.WithinRadius(dst[:0], c.grid.At(i), c.DecodeRange(), i)
	c.pools.ids.sort(ids)
	return ids
}

// DecodeRange returns the deterministic decode range every radio's
// transmitter reaches against the receive threshold.
func (c *Channel) DecodeRange() float64 {
	return propagation.RangeFor(c.model, c.params.TxPowerDBm, c.params.RxThreshDBm, 1, c.cutoff+1)
}

// Connected reports whether the deterministic unit-disk graph induced
// by the decode range is connected — experiments regenerate topologies
// until it is, matching the paper's implicit assumption that flooding
// reaches everyone.
func (c *Channel) Connected() bool {
	n := len(c.radios)
	if n == 0 {
		return true
	}
	rangeM := c.DecodeRange()
	visited := make([]bool, n)
	stack := []int{0}
	visited[0] = true
	count := 1
	var buf []int
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		buf = c.grid.WithinRadius(buf[:0], c.grid.At(v), rangeM, v)
		for _, u := range buf {
			if !visited[u] {
				visited[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == n
}
