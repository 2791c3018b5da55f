package phy

import (
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
	idx     int32    // receiver node id
	dist    float64  // transmitter→receiver distance, meters
	meanDBm float64  // deterministic (unfaded) receive power
	meanMW  float64  // meanDBm in milliwatts, for the no-fading fast path
	delay   sim.Time // propagation delay over dist
}

// Channel is the shared broadcast medium. It knows every radio's
// position, computes per-receiver power through a propagation model and
// an optional fader, and schedules signal start/end events with the
// true propagation delay.
//
// The hot path — transmit — runs off a per-node link cache: the
// id-sorted receivers within the cutoff, with distance, mean power, and
// propagation delay precomputed. Caches build lazily on a node's first
// transmission and are invalidated per node by MoveTo and SetTxPower,
// so static topologies (the paper's scenarios) pay the grid query,
// sort, and log/pow propagation math exactly once per transmitter.
type Channel struct {
	model  propagation.Model
	fader  propagation.Fader
	noFade bool       // fader is propagation.NoFade: skip draws and reuse meanMW
	frng   *rand.Rand // fading draws
	grid   *geo.HierGrid

	// radios is the contiguous radio arena, and states/txPow/energies
	// are the struct-of-arrays hot per-node scalars hoisted out of the
	// Radio struct: transceiver phase (up/down, rx/tx), live transmit
	// power, and the energy meter, all indexed by node id. The four
	// slices come from one Pools.radioArena call, so a sweep worker's
	// consecutive runs reuse the same backing memory.
	radios   []Radio
	states   []State
	txPow    []float64
	energies []Energy

	// params is the single shared radio configuration every Radio points
	// at, and power the single shared draw profile every Energy points
	// at; noiseMW/csThreshMW/captureRatio are the linear-domain images of
	// the dB thresholds, converted once here so the per-signal hot paths
	// (carrier sensing, SINR) compare milliwatts without per-node cached
	// copies. All frozen after NewChannel.
	params       Params
	power        Power
	noiseMW      float64 // params.NoiseFloorDBm in mW
	csThreshMW   float64 // params.CSThreshDBm in mW
	captureRatio float64 // params.CaptureDB as a linear power ratio

	// cutoff is the distance beyond which a transmission cannot affect
	// a receiver even after fading; signals past it are not scheduled.
	cutoff float64

	// tiles holds the per-tile scheduling state. A sequential channel
	// has exactly one tile whose kernel is the simulation kernel — the
	// pre-tiling code path, unchanged. A tiled channel (ChannelConfig
	// .Tiles) has one tileCtx per arena tile; transmissions run on the
	// source node's tile and same-tile deliveries schedule directly,
	// while boundary-crossing deliveries queue in the source tile's
	// outbox for the barrier exchange (ExchangeCross).
	tiles []*tileCtx
	// ctl serves the single-threaded control lane: interference
	// injection, mobility, link offsets. Sequential channels alias it
	// to tiles[0]; tiled channels give it the barrier-synchronized
	// control kernel.
	ctl *tileCtx
	// tileOf maps node id → tile index (all zero when sequential).
	tileOf []int32

	// links[i] caches node i's outgoing edges; linkValid[i] marks the
	// entry current. noCache forces a rebuild on every transmission —
	// the recompute-every-time reference the coherence tests compare
	// against. Entry i is only ever written by node i's own tile (or
	// by the control lane at a barrier), so the shared slices are safe
	// under tiled execution.
	links     [][]link
	linkValid []bool
	noCache   bool
	// linkCap, when positive, bounds how many nodes per tile may hold a
	// valid link cache at once: each tile evicts its least-recently
	// built entry FIFO-style past the cap. Rebuilds are bit-identical,
	// so eviction changes memory and time, never results.
	linkCap int

	// offsets holds the fault plane's per-link shadowing: extra gain in
	// dB applied on top of the propagation model for specific directed
	// links. Nil (the common case) means the power math runs exactly the
	// pre-offset expressions, preserving float bit-identity. Mutated
	// only from the control lane (all tiles parked at a barrier).
	offsets map[linkKey]float64

	// ranges memoizes the RangeFor bisection per radio parameter set
	// (experiments call DecodeRange/NeighborCount per node on topologies
	// where all radios share one parameter set). When ChannelConfig
	// supplies a cache it is shared across every channel the owning
	// sweep worker builds; otherwise the channel owns a private one.
	ranges *propagation.SharedRangeCache
}

// tileCtx is the per-tile slice of the channel's mutable scheduling
// state: the tile's kernel, its object pools, its share of the medium
// counters (the registry sums same-name counters, so per-tile counters
// roll up to the same network series), its UID namespace, and the
// outbox of boundary-crossing deliveries awaiting the next barrier.
// Sequential channels have exactly one, making every field access
// identical to the pre-tiling single-struct layout.
type tileCtx struct {
	kernel *sim.Kernel
	pools  *Pools

	// uid counts frames born on this tile; uidBase disambiguates the
	// namespace across tiles (UIDs are only ever compared for equality
	// and zero). Sequential channels use base 0, preserving historical
	// values.
	uid     uint64
	uidBase uint64

	stats chanCounters

	// pendingStarts counts deliveries scheduled whose leading edge has
	// not yet reached the receiver — this tile's term of the
	// phy-delivery conservation law.
	pendingStarts int

	scratch []int
	outbox  []xdeliv

	// cached is the FIFO of nodes whose link cache this tile built,
	// consulted only when the channel bounds cache residency
	// (Channel.linkCap > 0). cachedHead indexes the oldest live entry;
	// the slice compacts when the dead prefix dominates.
	cached     []int32
	cachedHead int
}

// xdeliv is one boundary-crossing delivery parked in a source tile's
// outbox between transmission and the next epoch barrier.
type xdeliv struct {
	rcv   *Radio
	sig   *signal
	start sim.Time
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
	Model propagation.Model
	Fader propagation.Fader
	// FadeMarginDB widens the interference cutoff to admit fading
	// upswings; ignored with a nil/NoFade fader.
	FadeMarginDB float64
	// Rng drives fading; may be nil when Fader is nil/NoFade.
	Rng *rand.Rand
	// noLinkCache disables the per-node link cache: every transmission
	// re-queries the spatial grid and recomputes propagation math. This
	// is the slow reference path; only the package's coherence tests
	// set it, to prove the cached channel bit-for-bit equivalent to it.
	noLinkCache bool
	// LinkCacheCap, when positive, bounds the number of per-node link
	// caches each tile keeps live at once (FIFO eviction). At mega
	// scale an unbounded cache costs kilobytes per transmitter that
	// ever spoke; a cap keeps link-cache memory O(active transmitters
	// per tile). Zero means unbounded (the historical behavior).
	// Eviction only forces bit-identical rebuilds — results never
	// change.
	LinkCacheCap int
	// Pools, when non-nil, supplies externally owned signal/delivery
	// free lists (a sweep worker's reusable run context). Nil means the
	// channel allocates private pools — identical behavior, colder
	// memory.
	Pools *Pools
	// Ranges, when non-nil, supplies an externally owned cross-model
	// range cache; nil means a private one.
	Ranges *propagation.SharedRangeCache
	// Tiles, when it holds more than one entry, partitions the medium
	// for tiled PDES: one kernel (and optional pools) per arena tile,
	// with TileOf mapping every node id to its tile. The kernel passed
	// to NewChannel then becomes the control-lane kernel (interference
	// injection, link offsets), which only runs while all tile workers
	// are parked at an epoch barrier. Empty or single-entry means the
	// classic sequential medium. Tiling requires NoFade: the fading
	// stream is a single sequential draw order that cannot be
	// partitioned without changing results.
	Tiles []TileSpec
	// TileOf maps node id → index into Tiles; required iff tiled.
	TileOf []int32
}

// TileSpec names one tile's scheduling resources for a tiled channel.
type TileSpec struct {
	Kernel *sim.Kernel
	// Pools, when nil, gives the tile private pools.
	Pools *Pools
}

// CutoffFor returns the interference cutoff a channel over rect with
// the given radio parameters will use: the distance beyond which a
// transmission cannot affect a receiver, against the carrier-sense
// threshold widened by fadeMarginDB (pass 0 without fading). Exposed so
// the network layer can size PDES tilings from the same number the
// channel computes.
func CutoffFor(model propagation.Model, params Params, fadeMarginDB float64, rect geo.Rect) float64 {
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
	fader := cfg.Fader
	if fader == nil {
		fader = propagation.NoFade{}
	}
	_, noFade := fader.(propagation.NoFade)
	margin := cfg.FadeMarginDB
	if noFade {
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
	ranges := cfg.Ranges
	if ranges == nil {
		ranges = propagation.NewSharedRangeCache()
	}
	ch := &Channel{
		model:     model,
		fader:     fader,
		noFade:    noFade,
		frng:      cfg.Rng,
		grid:      geo.NewHierGrid(rect, cell, positions),
		cutoff:    cutoff,
		links:     make([][]link, len(positions)),
		linkValid: make([]bool, len(positions)),
		noCache:   cfg.noLinkCache,
		linkCap:   cfg.LinkCacheCap,
		ranges:    ranges,
	}
	if len(cfg.Tiles) > 1 {
		if !noFade {
			panic("phy: tiled channel requires NoFade (the fading stream is sequential)")
		}
		if len(cfg.TileOf) != len(positions) {
			panic("phy: tiled channel needs TileOf for every node")
		}
		ch.tiles = make([]*tileCtx, len(cfg.Tiles))
		for i, ts := range cfg.Tiles {
			p := ts.Pools
			if p == nil {
				p = NewPools()
			}
			ch.tiles[i] = &tileCtx{
				kernel:  ts.Kernel,
				pools:   p,
				uidBase: uint64(i+1) << 48,
			}
		}
		ch.ctl = &tileCtx{
			kernel:  k,
			pools:   NewPools(),
			uidBase: uint64(len(cfg.Tiles)+1) << 48,
		}
		ch.tileOf = cfg.TileOf
	} else {
		t := &tileCtx{kernel: k, pools: pools}
		ch.tiles = []*tileCtx{t}
		ch.ctl = t
		ch.tileOf = make([]int32, len(positions))
	}
	ch.params = params
	ch.power = DefaultPower()
	ch.noiseMW = propagation.DBmToMilliwatt(params.NoiseFloorDBm)
	ch.csThreshMW = propagation.DBmToMilliwatt(params.CSThreshDBm)
	ch.captureRatio = propagation.DBmToMilliwatt(params.CaptureDB)
	ch.radios, ch.states, ch.txPow, ch.energies = pools.radioArena(len(positions))
	for i := range positions {
		r := &ch.radios[i]
		r.id = packet.NodeID(i)
		r.params = &ch.params
		r.kernel = ch.tiles[ch.tileOf[i]].kernel
		r.channel = ch
		ch.states[i] = StateIdle
		ch.txPow[i] = params.TxPowerDBm
		ch.energies[i] = Energy{power: &ch.power, state: StateIdle}
	}
	return ch
}

// Tiled reports whether the medium is partitioned into more than one
// tile.
func (c *Channel) Tiled() bool { return len(c.tiles) > 1 }

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
	if c.Tiled() {
		// Tile assignment and boundary tagging are fixed at
		// construction; a move could cross a tile border or create a
		// new boundary transmitter mid-run, both unsound.
		panic("phy: MoveTo is not supported on a tiled channel")
	}
	if c.noCache {
		c.grid.MoveTo(i, p)
		return
	}
	t := c.ctl
	t.scratch = c.grid.WithinRadius(t.scratch[:0], c.grid.At(i), c.cutoff, i)
	for _, id := range t.scratch {
		c.linkValid[id] = false
	}
	c.grid.MoveTo(i, p)
	t.scratch = c.grid.WithinRadius(t.scratch[:0], p, c.cutoff, i)
	for _, id := range t.scratch {
		c.linkValid[id] = false
	}
	c.linkValid[i] = false
}

// invalidateLinks drops node i's cached outgoing links; called by the
// radio when its transmit power changes (receiver set is distance-based
// and unaffected, but every cached mean power becomes stale).
func (c *Channel) invalidateLinks(i int) { c.linkValid[i] = false }

// Model returns the propagation model in use.
func (c *Channel) Model() propagation.Model { return c.model }

// Cutoff returns the interference cutoff distance in meters.
func (c *Channel) Cutoff() float64 { return c.cutoff }

// Stats returns medium-wide counters, summed across tiles (and the
// control lane, whose jammer bursts count as deliveries).
func (c *Channel) Stats() ChannelStats {
	var tx, dl uint64
	for _, t := range c.tiles {
		tx += t.stats.transmissions.Value()
		dl += t.stats.deliveries.Value()
	}
	if c.ctl != c.tiles[0] {
		tx += c.ctl.stats.transmissions.Value()
		dl += c.ctl.stats.deliveries.Value()
	}
	return ChannelStats{Transmissions: tx, Deliveries: dl}
}

// RegisterMetrics registers the medium-wide counters and the pending
// leading-edge count, then the radios' counter blocks as one phy.*
// population and the in-flight signal count. Per-tile counters register
// under the shared series names; the registry sums same-name sources,
// so tiled and sequential runs expose identical series.
func (c *Channel) RegisterMetrics(reg *metrics.Registry) {
	for _, t := range c.tiles {
		reg.Observe("chan.transmissions", &t.stats.transmissions)
		reg.Observe("chan.deliveries", &t.stats.deliveries)
	}
	if c.ctl != c.tiles[0] {
		reg.Observe("chan.transmissions", &c.ctl.stats.transmissions)
		reg.Observe("chan.deliveries", &c.ctl.stats.deliveries)
	}
	reg.Func("chan.pending_starts", func() uint64 {
		var n int
		for _, t := range c.tiles {
			n += t.pendingStarts
		}
		if c.ctl != c.tiles[0] {
			n += c.ctl.pendingStarts
		}
		return uint64(n)
	})
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
	return c.linkGain(from, to, c.model.ReceivedPower(c.txPow[from], d))
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
		c.offsets[linkKey{int32(from), int32(to)}] = db
	}
	c.linkValid[from] = false
}

// LinkOffset returns the current extra gain on from→to (0 when none).
func (c *Channel) LinkOffset(from, to int) float64 {
	return c.offsets[linkKey{int32(from), int32(to)}]
}

// linkGain folds any fault-plane offset into the deterministic receive
// power p. The nil-map fast path returns p untouched — not even p+0 is
// computed — so runs without link faults stay float-bit-identical to
// the pre-offset code.
func (c *Channel) linkGain(from, to int, p float64) float64 {
	if c.offsets == nil {
		return p
	}
	if o, ok := c.offsets[linkKey{int32(from), int32(to)}]; ok {
		return p + o
	}
	return p
}

// buildLinks computes node src's outgoing edges: receivers within the
// cutoff in ascending id order (so fading draws stay reproducible),
// with the same distance and power expressions transmit used before the
// cache existed — the cache must be bit-for-bit equivalent, not merely
// approximately right.
func (c *Channel) buildLinks(t *tileCtx, src int) []link {
	pos := c.grid.At(src)
	t.scratch = c.grid.WithinRadius(t.scratch[:0], pos, c.cutoff, src)
	slices.Sort(t.scratch)
	ls := c.links[src][:0]
	tx := c.txPow[src]
	for _, idx := range t.scratch {
		d := pos.Dist(c.grid.At(idx))
		p := c.linkGain(src, idx, c.model.ReceivedPower(tx, d))
		ls = append(ls, link{
			idx:     int32(idx),
			dist:    d,
			meanDBm: p,
			meanMW:  propagation.DBmToMilliwatt(p),
			delay:   sim.Time(propagation.Delay(d)),
		})
	}
	c.links[src] = ls
	c.linkValid[src] = true
	if c.linkCap > 0 && !c.noCache {
		c.boundCache(t, src)
	}
	return ls
}

// boundCache records src in tile t's cache-residency FIFO and evicts
// the oldest entries past the channel's cap. An evicted node's next
// transmission rebuilds its links bit-identically, so the bound trades
// rebuild time for O(linkCap) cache memory per tile. Entries can be
// stale (invalidated by MoveTo/SetTxPower, or re-cached later in the
// FIFO); evicting a stale entry is a cheap no-op.
func (c *Channel) boundCache(t *tileCtx, src int) {
	t.cached = append(t.cached, int32(src))
	for len(t.cached)-t.cachedHead > c.linkCap {
		old := t.cached[t.cachedHead]
		t.cachedHead++
		if int(old) != src && c.linkValid[old] {
			c.linkValid[old] = false
			c.links[old] = nil
		}
	}
	// Compact once the dead prefix dominates, keeping the FIFO's
	// footprint proportional to the cap rather than to traffic history.
	if t.cachedHead > len(t.cached)/2 && t.cachedHead > 32 {
		n := copy(t.cached, t.cached[t.cachedHead:])
		t.cached = t.cached[:n]
		t.cachedHead = 0
	}
}

// transmit fans a frame out to every radio within the cutoff range.
// Receivers are visited in id order so fading draws are reproducible.
// On a tiled channel it runs on the source node's tile: same-tile
// receivers schedule directly on the tile kernel, while
// boundary-crossing deliveries are parked in the tile outbox for the
// next epoch barrier (their leading edge is at least the cross-tile
// lookahead away, so the deferral never reorders the receiver).
//
// pkt is copied once per transmission, not once per receiver: the first
// scheduled receiver freezes it into a frame every later signal of the
// transmission shares, and only a receiver that decodes the frame pays
// for a copy of its own (Radio.signalEnd).
func (c *Channel) transmit(src *Radio, pkt *packet.Packet, dur sim.Time) {
	srcIdx := int(src.id)
	t := c.tiles[c.tileOf[srcIdx]]
	t.stats.transmissions.Inc()
	if pkt.UID == 0 {
		// Assign once per frame: ARQ retransmissions keep their UID so
		// receivers can suppress duplicates of the same frame.
		t.uid++
		pkt.UID = t.uidBase | t.uid
	}
	ls := c.links[srcIdx]
	if c.noCache || !c.linkValid[srcIdx] {
		ls = c.buildLinks(t, srcIdx)
	}
	now := t.kernel.Now()
	var f *frame
	for i := range ls {
		l := &ls[i]
		rcv := &c.radios[l.idx]
		var pDBm, pMW float64
		if c.noFade {
			pDBm, pMW = l.meanDBm, l.meanMW
		} else {
			pDBm = c.fader.Fade(c.frng, l.meanDBm)
			pMW = propagation.DBmToMilliwatt(pDBm)
		}
		if pDBm < rcv.params.CSThreshDBm {
			continue // too weak to sense or corrupt: not scheduled
		}
		if f == nil {
			f = &frame{pkt: *pkt}
		}
		rt := c.tiles[c.tileOf[l.idx]]
		t.stats.deliveries.Inc()
		if rt == t {
			s := t.pools.newSignal(f, pDBm, pMW)
			s.end = now + l.delay + dur
			src.txLive = append(src.txLive, s)
			c.scheduleDelivery(t, rcv, s, now+l.delay)
			continue
		}
		// Cross-tile: plain allocation — the receiver tile's pools are
		// not ours to touch mid-window, and the signal is released into
		// them after delivery.
		s := &signal{frame: f, powerDBm: pDBm, powerMW: pMW}
		s.end = now + l.delay + dur
		src.txLive = append(src.txLive, s)
		t.outbox = append(t.outbox, xdeliv{rcv: rcv, sig: s, start: now + l.delay})
	}
}

// ExchangeCross drains every tile's outbox of boundary-crossing
// deliveries onto the receiving tiles' kernels, in (source tile,
// transmit order) — a deterministic order independent of how the
// tile workers interleaved. Must be called at an epoch barrier, with
// every tile worker parked. Returns the number of deliveries moved.
func (c *Channel) ExchangeCross() int {
	n := 0
	for _, t := range c.tiles {
		for i := range t.outbox {
			x := &t.outbox[i]
			rt := c.tiles[c.tileOf[x.rcv.id]]
			if x.start < rt.kernel.Now() {
				panic("phy: cross-tile delivery in the receiver's past (lookahead violated)")
			}
			c.scheduleDelivery(rt, x.rcv, x.sig, x.start)
			x.rcv, x.sig = nil, nil
			n++
		}
		t.outbox = t.outbox[:0]
	}
	return n
}

// delivery carries one frame to one receiver. It is a pooled object
// scheduled twice on the kernel with a single pre-bound callback: the
// first firing is the frame's leading edge (signalStart) and reschedules
// itself for the trailing edge (signalEnd) — replacing the two closures
// the channel used to allocate per delivery.
type delivery struct {
	tile    *tileCtx
	rcv     *Radio
	sig     *signal
	started bool
	fn      func() // d.fire bound once at allocation, reused across recycles
}

// scheduleDelivery arms a pooled delivery for s at the receiver,
// starting (leading edge) at start, on the receiver's tile t.
func (c *Channel) scheduleDelivery(t *tileCtx, rcv *Radio, s *signal, start sim.Time) {
	d := t.pools.newDelivery(t)
	d.rcv, d.sig, d.started = rcv, s, false
	t.pendingStarts++
	t.kernel.At(start, d.fn)
}

// fire is the delivery's only callback. First firing: leading edge —
// queue the trailing edge, then hand the signal to the receiver. Second
// firing: trailing edge — finish reception and recycle.
func (d *delivery) fire() {
	if !d.started {
		d.started = true
		d.tile.pendingStarts--
		d.tile.kernel.At(d.sig.end, d.fn)
		d.rcv.signalStart(d.sig)
		return
	}
	t := d.tile
	d.rcv.signalEnd(d.sig)
	t.pools.releaseSignal(d.sig)
	t.pools.releaseDelivery(d)
}

// InjectInterference radiates an interference-only burst of duration
// dur from an arbitrary position — the fault plane's roaming jammer.
// The burst fans out through the normal delivery path so carrier
// sensing, SINR corruption, and the phy conservation laws all account
// for it, but its signals are born aborted: they raise the noise floor
// and hold the medium busy without ever decoding. Power is the
// deterministic mean (no fading draw), so a jammer never perturbs the
// frame fading stream; reach is bounded by the channel's interference
// cutoff. Returns how many radios the burst was scheduled at.
func (c *Channel) InjectInterference(pos geo.Point, txDBm float64, dur sim.Time) int {
	// Runs on the control lane: single-threaded, and on a tiled channel
	// only at an epoch barrier (every tile clock equals the control
	// clock), so scheduling straight onto the receivers' tiles is
	// causal.
	ct := c.ctl
	ct.scratch = c.grid.WithinRadius(ct.scratch[:0], pos, c.cutoff, -1)
	slices.Sort(ct.scratch)
	ct.uid++
	f := &frame{pkt: packet.Packet{
		Kind:   packet.KindJam,
		From:   packet.None,
		To:     packet.Broadcast,
		Origin: packet.None,
		Target: packet.None,
		UID:    ct.uidBase | ct.uid,
	}}
	now := ct.kernel.Now()
	hits := 0
	for _, idx := range ct.scratch {
		rcv := &c.radios[idx]
		d := pos.Dist(c.grid.At(idx))
		pDBm := c.model.ReceivedPower(txDBm, d)
		if pDBm < rcv.params.CSThreshDBm {
			continue
		}
		rt := c.tiles[c.tileOf[idx]]
		delay := sim.Time(propagation.Delay(d))
		s := rt.pools.newSignal(f, pDBm, propagation.DBmToMilliwatt(pDBm))
		s.aborted = true
		s.end = now + delay + dur
		ct.stats.deliveries.Inc()
		c.scheduleDelivery(rt, rcv, s, now+delay)
		hits++
	}
	return hits
}

// InterferenceNeighbors appends the ids within the interference cutoff
// of node i to dst (unsorted) — every node a transmission from i could
// possibly touch, even after fading. Tiled construction uses it to find
// boundary transmitters and the minimum cross-tile propagation delay.
func (c *Channel) InterferenceNeighbors(dst []int, i int) []int {
	return c.grid.WithinRadius(dst[:0], c.grid.At(i), c.cutoff, i)
}

// NeighborIDs appends the ids within node i's deterministic decode
// range to dst, sorted ascending — the neighbor view fault injection
// uses to pick links worth degrading. Offsets installed through
// SetLinkOffset do not shrink this view: it describes the underlying
// topology, not the currently faulted one.
func (c *Channel) NeighborIDs(dst []int, i int) []int {
	ids := c.grid.WithinRadius(dst[:0], c.grid.At(i), c.DecodeRange(i), i)
	slices.Sort(ids)
	return ids
}

// NeighborCount returns how many nodes sit within the decode range of
// node i (deterministic power model, no fading) — a topology metric
// used by experiments and tests.
func (c *Channel) NeighborCount(i int) int {
	rangeM := c.DecodeRange(i)
	ids := c.grid.WithinRadius(nil, c.grid.At(i), rangeM, i)
	return len(ids)
}

// DecodeRange returns the deterministic decode range of node i's
// transmitter against its own receive threshold. The underlying
// bisection is memoized per parameter set — experiments call this for
// every node of fields where all radios share one configuration.
func (c *Channel) DecodeRange(i int) float64 {
	r := &c.radios[i]
	return c.ranges.RangeFor(c.model, c.txPow[i], r.params.RxThreshDBm, 1, c.cutoff+1)
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
	rangeM := c.DecodeRange(0)
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
