package phy

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"routeless/internal/digest"
	"routeless/internal/geo"
	"routeless/internal/packet"
	"routeless/internal/propagation"
	"routeless/internal/sim"
)

// The channel hands one transmission to every receiver as its own event
// at its own (time, sequence) key. These tests pin that order from the
// outside — through Listener indications only — so the scheduler
// underneath may change how it carries the edges but not when, or in
// what order, they fire.

// orderListener reports every PHY indication of one radio to a sink.
type orderListener struct {
	id   int
	sink func(radio int, indication byte, uid uint64, rssi float64)
}

func (l *orderListener) OnReceive(p *packet.Packet, rssi float64) { l.sink(l.id, 'r', p.UID, rssi) }
func (l *orderListener) OnMediumBusy()                            { l.sink(l.id, 'b', 0, 0) }
func (l *orderListener) OnMediumIdle()                            { l.sink(l.id, 'i', 0, 0) }
func (l *orderListener) OnTxDone()                                { l.sink(l.id, 'd', 0, 0) }

// TestEqualArrivalTimesFireInIdOrder: late in a long run two different
// propagation delays can round to the same arrival instant. The
// nearer receiver has the higher id, so delay order and (time, seq)
// order disagree — and (time, seq) order, which is id order, must win.
func TestEqualArrivalTimesFireInIdOrder(t *testing.T) {
	const at = sim.Time(1 << 20) // ≈ 10⁶ s: one ulp is 0.23 ns, seven times the 0.033 ns the extra centimetre costs
	k := sim.NewKernel(1)
	model := propagation.NewFreeSpace()
	positions := pts(1000, 1000, 1000, 1100.01, 1100, 1000) // 1 is 100.01 m away, 2 is 100.00 m
	ch := NewChannel(k, geo.NewRect(3000, 3000), positions, DefaultParams(model, 250), ChannelConfig{Model: model})
	type start struct {
		radio int
		at    sim.Time
	}
	var starts []start
	for i := range positions {
		ch.Radio(i).SetListener(&orderListener{id: i, sink: func(radio int, ind byte, _ uint64, _ float64) {
			if ind == 'b' && radio != 0 {
				starts = append(starts, start{radio, k.Now()})
			}
		}})
	}
	k.At(at, func() { ch.Radio(0).Transmit(pkt(100)) })
	k.Run()
	if len(starts) != 2 {
		t.Fatalf("%d leading edges reported, want 2", len(starts))
	}
	if starts[0].at > starts[1].at || starts[0].at < starts[1].at {
		t.Fatalf("arrivals at %v and %v differ: the geometry no longer produces a rounding tie", starts[0].at, starts[1].at)
	}
	if starts[0].radio != 1 || starts[1].radio != 2 {
		t.Fatalf("equal-time leading edges fired at radios %d, %d; want id order 1, 2", starts[0].radio, starts[1].radio)
	}
}

// edgeOrderGolden is the hash TestEdgeOrderGolden prints on the
// milliwatt channel. Only the RSSI words moved when link and signal
// power left dBm: with RSSI left out, the dBm channel and this one both
// hash the 5 797 indications to 0x3a3eff1a34eb74b5.
const edgeOrderGolden = 0xc2048f7b91e1690

// TestEdgeOrderGolden hashes every indication of a busy fading channel —
// overlapping frames, a move and a link offset between frames, a jam
// burst, a sender switched off mid-air — together with the kernel's
// clock and sequence counter at that instant. Any change to which edge
// fires when, to the order of equal-time edges, to a fading draw, or to
// how many sequence numbers an edge consumes moves the hash.
func TestEdgeOrderGolden(t *testing.T) {
	const (
		n       = 200
		terrain = 1500.0
		frames  = 90
		spacing = sim.Time(0.3e-3) // 100 B is 0.8 ms on the air: frames overlap
	)
	posRng := rand.New(rand.NewSource(5))
	positions := make([]geo.Point, n)
	for i := range positions {
		positions[i] = geo.Point{X: posRng.Float64() * terrain, Y: posRng.Float64() * terrain}
	}
	k := sim.NewKernel(1)
	model := propagation.NewFreeSpace()
	params := DefaultParams(model, 250)
	ch := NewChannel(k, geo.NewRect(terrain, terrain), positions, params, ChannelConfig{
		Model:        model,
		Fading:       true,
		FadeMarginDB: 10,
		Rng:          rand.New(rand.NewSource(6)),
	})
	h := digest.New()
	indications := 0
	sink := func(radio int, ind byte, uid uint64, rssi float64) {
		indications++
		h.Float64(float64(k.Now()))
		h.Uint64(k.Seq())
		h.Int(radio)
		h.Byte(ind)
		h.Uint64(uid)
		h.Float64(rssi)
	}
	for i := range positions {
		ch.Radio(i).SetListener(&orderListener{id: i, sink: sink})
	}

	script := rand.New(rand.NewSource(7))
	for f := 0; f < frames; f++ {
		src := script.Intn(n)
		at := spacing * sim.Time(f+1)
		k.At(at, func() {
			if ch.Radio(src).State() == StateIdle {
				ch.Radio(src).Transmit(pkt(100))
			}
		})
		switch f {
		case 20: // between frames: a warm transmitter's neighbourhood changes
			mover, dest := script.Intn(n), geo.Point{X: script.Float64() * terrain, Y: script.Float64() * terrain}
			k.At(at+spacing/2, func() { ch.MoveTo(mover, dest) })
		case 35:
			tuned := script.Intn(n)
			k.At(at+spacing/2, func() { ch.SetLinkOffset(tuned, (tuned+1)%n, -6) })
		case 50:
			k.At(at+spacing/3, func() {
				ch.InjectInterference(geo.Point{X: terrain / 2, Y: terrain / 2}, 30, 1.1e-3)
			})
		case 65: // mid-air: some leading edges have fired, no trailing edge has
			k.At(at+1e-6, func() { ch.Radio(src).TurnOff() })
			k.At(at+2*spacing, func() { ch.Radio(src).TurnOn() })
		}
	}
	k.Run()

	var truncated, collisions uint64
	for i := range positions {
		truncated += ch.Radio(i).Count(Truncated)
		collisions += ch.Radio(i).Count(Collisions)
	}
	if truncated == 0 || collisions == 0 || ch.Stats().Deliveries < 20*frames {
		t.Fatalf("script lost its teeth: %d truncated, %d collisions, %d deliveries", truncated, collisions, ch.Stats().Deliveries)
	}
	if got := h.Sum(); got != edgeOrderGolden {
		t.Fatalf("edge order hash %#x over %d indications, want %#x", got, indications, uint64(edgeOrderGolden))
	}
}

// TestShortBurstEndsBeforeNextReceiverStarts: a burst shorter than the
// spread of propagation delays has trailing edges that fire before
// later leading edges, so whatever walks the trailing edges runs dry
// mid-transmission and must pick up again behind the next leading edge.
func TestShortBurstEndsBeforeNextReceiverStarts(t *testing.T) {
	k := sim.NewKernel(1)
	model := propagation.NewFreeSpace()
	positions := pts(1000, 1000, 1030, 1000, 1300, 1000, 1000, 1500) // 30 m, 300 m, 500 m from radio 0
	ch := NewChannel(k, geo.NewRect(3000, 3000), positions, DefaultParams(model, 250), ChannelConfig{Model: model})
	var got []string
	for i := range positions {
		ch.Radio(i).SetListener(&orderListener{id: i, sink: func(radio int, ind byte, _ uint64, _ float64) {
			got = append(got, string(ind)+string(rune('0'+radio)))
		}})
	}
	const burst = 0.2e-6 // the radios are 0.1, 1.0 and 1.67 µs away
	if hits := ch.InjectInterference(positions[0], 24.5, burst); hits != 4 {
		t.Fatalf("burst reached %d radios, want 4", hits)
	}
	k.Run()
	want := []string{"b0", "b1", "i0", "i1", "b2", "i2", "b3", "i3"}
	if !slices.Equal(got, want) {
		t.Fatalf("indications %v, want %v", got, want)
	}
	if ch.pendingStarts != 0 || len(ch.inFlight) != 0 || len(ch.pools.tx) != 1 {
		t.Fatalf("after the burst: %d pending starts, %d in flight, %d recycled; want 0, 0, 1",
			ch.pendingStarts, len(ch.inFlight), len(ch.pools.tx))
	}
}

// TestTransmissionFreeListBoundedBySignalCapacity: the free list is
// capped by the slab capacity it pins, and a parked transmission pins
// neither its channel nor the frame's payload.
func TestTransmissionFreeListBoundedBySignalCapacity(t *testing.T) {
	p := NewPools()
	const slab = 1 << 10
	var live []*transmission
	for i := 0; i < 2*maxFreeSignals/slab; i++ {
		tx := p.newTransmission(slab)
		tx.ch, tx.frame.pkt.Payload = &Channel{}, "payload"
		live = append(live, tx)
	}
	for _, tx := range live {
		p.releaseTransmission(tx)
	}
	if each := cap(live[0].signals); len(p.tx) != maxFreeSignals/each || p.txSignals != len(p.tx)*each {
		t.Fatalf("free list pins %d signals in %d transmissions of %d; cap is %d", p.txSignals, len(p.tx), each, maxFreeSignals)
	}
	for _, tx := range p.tx {
		if tx.ch != nil || tx.frame.pkt.Payload != nil {
			t.Fatal("a parked transmission still pins its channel or payload")
		}
	}
	pinned := p.txSignals
	if tx := p.newTransmission(slab / 2); len(tx.signals) != slab/2 || cap(tx.signals) < slab || p.txSignals != pinned-cap(tx.signals) {
		t.Fatalf("reuse: len %d cap %d, %d of %d signals still pinned", len(tx.signals), cap(tx.signals), p.txSignals, pinned)
	}
}

// TestSortedIDsMatchesSort checks the channel's one id order against a
// comparison sort: random distinct id sets over field sizes on both
// sides of a word and of a summary word — with the edge ids 0, 63, 64,
// 4095, 4096 and n−1 forced in, and the empty, singleton and full sets —
// and after every call the bitset must be all zero, or the next query
// would inherit stale ids.
func TestSortedIDsMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 63, 64, 65, 128, 129, 1000, 4096, 4097, 20000} {
		b := newIDBits(n)
		sizes := []int{0, 1, n}
		for range 20 {
			sizes = append(sizes, r.Intn(n+1))
		}
		for _, size := range sizes {
			ids := r.Perm(n)[:size]
			for _, edge := range []int{0, 63, 64, 4095, 4096, n - 1} {
				if size > 1 && edge < n && !slices.Contains(ids, edge) {
					ids[r.Intn(size)] = edge
				}
			}
			want := slices.Clone(ids)
			slices.Sort(want)
			b.sort(ids)
			if !slices.Equal(ids, want) {
				t.Fatalf("n=%d, %d ids: the order differs from slices.Sort", n, size)
			}
			if !b.clear() {
				t.Fatalf("n=%d, %d ids: the bitset is not all zero after the call", n, size)
			}
		}
	}
}

// clear reports whether every word of b is zero.
func (b idBits) clear() bool {
	return !slices.ContainsFunc(b.words, func(w uint64) bool { return w != 0 }) &&
		!slices.ContainsFunc(b.summary, func(w uint64) bool { return w != 0 })
}

// TestFiringRankMatchesSort checks buildLinks' firing-order sorter
// against a comparison sort of the same delay<<32|i keys: stacked
// receivers whose delays share one float32 half, delays spanning
// several binades, uniform delays and one delay shared by all, for
// every link count from 1 to 300. The coherence tests cannot catch a slip here — the cached and
// reference channels both rank through it.
func TestFiringRankMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	shapes := []struct {
		name  string
		delay func() float32
	}{
		{"stacked", func() float32 { return float32(1+r.Intn(3)) * 3.3e-7 }},
		{"binades", func() float32 { return float32(math.Ldexp(1+r.Float64(), -10-r.Intn(12))) }},
		{"uniform", func() float32 { return float32(r.Float64() * 1e-6) }},
		{"one_half", func() float32 { return 5e-7 }},
	}
	var s keySorter
	for _, shape := range shapes {
		for k := 1; k <= 300; k++ {
			keys := make([]uint64, k)
			for i := range keys {
				keys[i] = uint64(math.Float32bits(shape.delay()))<<32 | uint64(i)
			}
			orig, want := slices.Clone(keys), slices.Clone(keys)
			slices.Sort(want)
			if got := s.sort(keys); !slices.Equal(got, want) {
				t.Fatalf("%s, k=%d: sorted keys differ from slices.Sort", shape.name, k)
			}
			if !slices.Equal(keys, orig) {
				t.Fatalf("%s, k=%d: the input keys were modified", shape.name, k)
			}
		}
	}
}

// TestFadingDrawsEveryInCutoffReceiver pins transmit's rule under
// fading: every in-cutoff link takes one unit-mean power factor f, a
// signal is scheduled iff meanMW·f reaches carrier sense, and it carries
// exactly meanMW·f. One transmission on a Rayleigh-faded lattice where
// some in-cutoff receivers fade below the threshold must advance the
// fading stream by exactly one ExpFloat64 per link, drawn in id order,
// and every signal it schedules must carry the bits its twin stream
// predicts.
func TestFadingDrawsEveryInCutoffReceiver(t *testing.T) {
	const side, seed = 20, 11
	k := sim.NewKernel(1)
	model := propagation.NewFreeSpace()
	rect, positions := lattice(side)
	params := DefaultParams(model, 250)
	ch := NewChannel(k, rect, positions, params, ChannelConfig{
		Model:        model,
		Fading:       true,
		FadeMarginDB: 12,
		Rng:          rand.New(rand.NewSource(seed)),
	})
	for i := range positions {
		ch.Radio(i).SetListener(nullListener{})
	}
	src := ch.Radio(side*side/2 + side/2)
	src.Transmit(pkt(100))
	tx, links := src.txLive, ch.links[src.id]
	if tx == nil || len(tx.signals) == len(links) {
		t.Fatalf("%d in-cutoff receivers, all or none scheduled: the field must put some, not all, below carrier sense", len(links))
	}

	twin := rand.New(rand.NewSource(seed))
	want := make(map[int32]float64, len(links))
	for i, l := range links {
		if i > 0 && l.idx <= links[i-1].idx {
			t.Fatalf("link %d (receiver %d) follows receiver %d: links are not in id order", i, l.idx, links[i-1].idx)
		}
		d := ch.Position(int(src.id)).Dist(ch.Position(int(l.idx)))
		if mean := ch.txMW * model.Gain(d); math.Float64bits(l.meanMW) != math.Float64bits(mean) {
			t.Fatalf("receiver %d: cached mean %v mW, want txMW·Gain(d) = %v", l.idx, l.meanMW, mean)
		}
		if p := l.meanMW * twin.ExpFloat64(); p >= ch.csThreshMW {
			want[l.idx] = p
		}
	}
	if got, next := ch.frng.Int63(), twin.Int63(); got != next {
		t.Fatalf("after %d links the fading stream is not %d ExpFloat64 draws ahead", len(links), len(links))
	}
	if len(want) != len(tx.signals) {
		t.Fatalf("%d signals scheduled, the twin stream predicts %d", len(tx.signals), len(want))
	}
	for _, s := range tx.signals {
		p, ok := want[s.rcv]
		if !ok || math.Float64bits(s.powerMW) != math.Float64bits(p) {
			t.Fatalf("receiver %d: scheduled at %v mW, the twin stream predicts meanMW·f = %v (scheduled %v)", s.rcv, s.powerMW, p, ok)
		}
	}
	k.Run()
}
