package phy

import (
	"testing"

	"routeless/internal/geo"
	"routeless/internal/packet"
	"routeless/internal/propagation"
	"routeless/internal/rng"
	"routeless/internal/sim"
)

// nullListener absorbs PHY indications.
type nullListener struct{}

func (nullListener) OnReceive(*packet.Packet, float64) {}
func (nullListener) OnMediumBusy()                     {}
func (nullListener) OnMediumIdle()                     {}
func (nullListener) OnTxDone()                         {}

// BenchmarkBroadcastField measures one broadcast through the channel on
// a paper-scale field: power computation, fan-out scheduling, and
// delivery at ~24 neighbors.
func BenchmarkBroadcastField(b *testing.B) {
	k := sim.NewKernel(1)
	model := propagation.NewFreeSpace()
	params := DefaultParams(model, 250)
	rect := geo.NewRect(2000, 2000)
	pts := geo.UniformPoints(rng.New(1, rng.StreamTopology), rect, 500)
	ch := NewChannel(k, rect, pts, params, ChannelConfig{Model: model})
	for i := 0; i < 500; i++ {
		ch.Radio(i).SetListener(nullListener{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Radio(i % 500).Transmit(&packet.Packet{
			Kind: packet.KindData, To: packet.Broadcast, Size: 64,
		})
		k.Run()
	}
}

// BenchmarkReceivedPower measures the propagation hot path.
func BenchmarkReceivedPower(b *testing.B) {
	m := propagation.NewFreeSpace()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.ReceivedPower(24.5, float64(1+i%500))
	}
	_ = sink
}

// lattice returns side×side points on a 100 m pitch (Figure-1 density
// at a 250 m range) and the square that holds them.
func lattice(side int) (geo.Rect, []geo.Point) {
	const pitch = 100.0
	pts := make([]geo.Point, 0, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			pts = append(pts, geo.Point{X: pitch/2 + pitch*float64(x), Y: pitch/2 + pitch*float64(y)})
		}
	}
	return geo.NewRect(float64(side)*pitch, float64(side)*pitch), pts
}

// TestFanoutAllocBudget defends the fan-out's allocation count in the
// tier-1 suite: on a warm channel (link cache built, pools filled) one
// broadcast among 400 radios, drained to its last trailing edge, may
// allocate a constant — not one packet per scheduled receiver, and not
// one per receiver that decodes it either, since a decode is lent the
// channel's receive buffer. Measured: 1 object (the transmit-done
// callback) for ~20 decoded of ~96 scheduled frames.
func TestFanoutAllocBudget(t *testing.T) {
	const side = 20
	k := sim.NewKernel(1)
	model := propagation.NewFreeSpace()
	rect, pts := lattice(side)
	ch := NewChannel(k, rect, pts, DefaultParams(model, 250), ChannelConfig{Model: model})
	for i := range pts {
		ch.Radio(i).SetListener(nullListener{})
	}
	src := ch.Radio(side*side/2 + side/2)
	p := &packet.Packet{Kind: packet.KindData, To: packet.Broadcast, Size: 64}
	broadcast := func() {
		src.Transmit(p)
		k.Run()
	}
	broadcast() // warm-up
	before := ch.Stats()
	var rxBefore uint64
	for i := range pts {
		rxBefore += ch.Radio(i).Count(RxFrames)
	}
	const runs = 20
	allocs := testing.AllocsPerRun(runs, broadcast)
	var rx uint64
	for i := range pts {
		rx += ch.Radio(i).Count(RxFrames)
	}
	// AllocsPerRun makes one extra warm-up call.
	decoded := float64(rx-rxBefore) / (runs + 1)
	scheduled := float64(ch.Stats().Deliveries-before.Deliveries) / (runs + 1)
	if decoded < 8 || scheduled < 4*decoded {
		t.Fatalf("%.0f decoded of %.0f scheduled per broadcast: the lattice no longer separates the two", decoded, scheduled)
	}
	const budget = 1
	if allocs > budget {
		t.Fatalf("one broadcast allocates %.0f objects for %.0f decoded frames (%.0f scheduled); budget %d",
			allocs, decoded, scheduled, budget)
	}
}

// TestLinkBuildAllocatesOnce pins the link-cache miss path: a cold
// build knows its receiver count before it writes a link, so it sizes
// the list in one allocation instead of growing it by doubling, and a
// rebuild after a MoveTo that still fits the list allocates nothing.
func TestLinkBuildAllocatesOnce(t *testing.T) {
	const side = 20
	k := sim.NewKernel(1)
	model := propagation.NewFreeSpace()
	rect, pts := lattice(side)
	ch := NewChannel(k, rect, pts, DefaultParams(model, 250), ChannelConfig{Model: model})
	src := side*side/2 + side/2
	const runs = 10
	cold := testing.AllocsPerRun(runs, func() { // the warm-up call fills the channel's scratch
		ch.links[src] = nil
		ch.buildLinks(src)
	})
	n := len(ch.links[src])
	if n < 50 {
		t.Fatalf("the lattice gives node %d only %d receivers", src, n)
	}
	if cold != 1 || cap(ch.links[src]) != n {
		t.Fatalf("a cold build of %d links allocates %.0f objects (cap %d), want 1 of capacity %d", n, cold, cap(ch.links[src]), n)
	}

	j := src + 1
	home := ch.Position(j)
	step := 0
	rebuild := testing.AllocsPerRun(runs, func() {
		step++
		ch.MoveTo(j, geo.Point{X: home.X + float64(step%2), Y: home.Y})
		if ch.linkValid[src] {
			t.Fatal("a neighbour's move left the cache valid")
		}
		ch.buildLinks(src)
	})
	if rebuild != 0 || len(ch.links[src]) != n {
		t.Fatalf("a rebuild of %d links after MoveTo allocates %.0f objects, want 0", len(ch.links[src]), rebuild)
	}
}
