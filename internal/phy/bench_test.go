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
// allocate one frame, one packet per receiver that decodes it, and the
// transmit-done callback — not one packet per scheduled receiver.
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
	if budget := 1 + decoded + 2; allocs > budget {
		t.Fatalf("one broadcast allocates %.0f objects for %.0f decoded frames (%.0f scheduled); budget %.0f",
			allocs, decoded, scheduled, budget)
	}
}
