package phy

import (
	"fmt"
	"testing"

	"routeless/internal/geo"
	"routeless/internal/packet"
	"routeless/internal/pdes"
	"routeless/internal/propagation"
	"routeless/internal/sim"
)

func TestFrameFrozenAtTransmit(t *testing.T) {
	// The sender owns its packet again as soon as Transmit returns:
	// rewriting it immediately, or while the frame is still on the air,
	// changes nothing a receiver decodes.
	for _, when := range []sim.Time{0, 0.0004} { // 100 B = 0.8 ms on the air
		k, ch, recs := testChannel(t, pts(0, 0, 100, 0, 200, 0), 250)
		sent := pkt(100)
		sent.Seq, sent.TTL, sent.Payload = 9, 5, "payload"
		ch.Radio(0).Transmit(sent)
		onAir := *sent
		k.Schedule(when, func() { *sent = garbagePacket() })
		k.Run()
		for i := 1; i <= 2; i++ {
			if len(recs[i].rx) != 1 || *recs[i].rx[0] != onAir {
				t.Fatalf("mutation at +%v: receiver %d decoded %+v, want %+v", when, i, recs[i].rx, onAir)
			}
		}
	}
}

func TestTurnOffMidTransmitAbortsEveryReceiver(t *testing.T) {
	// Two decoders and one gray-zone (sensed only) receiver: a mid-air
	// power-down must reach every signal of the transmission, though
	// they now all point at one frame.
	k, ch, recs := testChannel(t, pts(0, 0, 100, 0, 200, 0, 400, 0), 250)
	ch.Radio(0).Transmit(pkt(1000)) // 8 ms
	var live []*signal
	k.Schedule(0.004, func() {
		live = append(live, ch.Radio(0).txLive...)
		ch.Radio(0).TurnOff()
		for i, s := range live {
			if !s.aborted {
				t.Errorf("signal %d of the truncated transmission not aborted", i)
			}
		}
	})
	k.Run()
	if len(live) != 3 {
		t.Fatalf("transmission had %d live signals, want 3", len(live))
	}
	for i := 1; i <= 3; i++ {
		if len(recs[i].rx) != 0 {
			t.Fatalf("receiver %d decoded a truncated frame", i)
		}
	}
	for i := 1; i <= 2; i++ {
		if got := ch.Radio(i).Count(Truncated); got != 1 {
			t.Fatalf("receiver %d Truncated = %d, want 1", i, got)
		}
	}
}

// frameScript drives a 6×6 lattice (100 m pitch, so every node has
// decoders and carrier-sensers on the other side of a tile border)
// through one staggered transmission per node, a jammer burst, and a
// mid-air power-down, with a scribbler on every radio. It returns what
// each radio decoded, in order, as text.
func frameScript(t *testing.T, tiles int) ([]string, int) {
	t.Helper()
	rect, positions := lattice(6)
	model := propagation.NewFreeSpace()
	global := sim.NewKernel(1)
	cfg := ChannelConfig{Model: model}
	kernels := []*sim.Kernel{global}
	tileOf := make([]int32, len(positions))
	if tiles > 1 {
		tiling := geo.NewTiling(rect, tiles)
		kernels = make([]*sim.Kernel, tiles)
		for i := range kernels {
			kernels[i] = sim.NewKernel(int64(i + 2))
			kernels[i].EnableTagTracking()
			cfg.Tiles = append(cfg.Tiles, TileSpec{Kernel: kernels[i]})
		}
		for i, p := range positions {
			tileOf[i] = int32(tiling.TileOf(p))
		}
		cfg.TileOf = tileOf
	}
	ch := NewChannel(global, rect, positions, DefaultParams(model, 250), cfg)

	scribs := make([]*scribbler, len(positions))
	for i := range scribs {
		scribs[i] = &scribbler{}
		ch.Radio(i).SetListener(scribs[i])
	}
	const spacing = sim.Time(0.01)
	const victim = 14 // transmits 8 ms and is powered down halfway
	for i := range positions {
		i := i
		size := 100
		if i == victim {
			size = 1000
		}
		p := &packet.Packet{Kind: packet.KindData, To: packet.Broadcast, Origin: packet.NodeID(i), Seq: uint32(i), Size: size}
		// Tagged, and armed from time zero: the conservative window may
		// rely on no transmission starting before the next tagged event.
		kernels[tileOf[i]].AtTagged(spacing*sim.Time(i+1), func() {
			ch.Radio(i).Transmit(p)
			*p = garbagePacket()
		})
	}
	global.At(spacing*sim.Time(victim+1)+0.004, func() { ch.Radio(victim).TurnOff() })
	// A jammer burst over the centre while node 20's frame is on the air.
	global.At(spacing*21+0.0002, func() {
		ch.InjectInterference(geo.Point{X: 300, Y: 300}, 24.5, 0.0003)
	})

	until := spacing * sim.Time(len(positions)+2)
	crossed := 0
	if tiles > 1 {
		cross := make([]sim.Time, tiles)
		for i := range cross {
			cross[i] = sim.Infinity
		}
		var buf []int
		for i := range positions {
			buf = ch.InterferenceNeighbors(buf, i)
			for _, j := range buf {
				if tileOf[j] == tileOf[i] {
					continue
				}
				d := sim.Time(propagation.Delay(positions[i].Dist(positions[j])))
				if d < cross[tileOf[i]] {
					cross[tileOf[i]] = d
				}
			}
		}
		pdes.Run(pdes.Config{
			Tiles: kernels, Global: global, MinArm: 1e-3, CrossDelay: cross,
			Exchange: func() int { n := ch.ExchangeCross(); crossed += n; return n },
			Workers:  tiles,
		}, until)
	} else {
		global.RunUntil(until)
	}

	out := make([]string, len(positions))
	for i, s := range scribs {
		for j, p := range s.got {
			// UIDs are left out: their namespace is per tile by design.
			out[i] += fmt.Sprintf("%v size=%d rssi=%.6f; ", p.String(), p.Size, s.rssi[j])
		}
	}
	return out, crossed
}

// TestTiledFrameSharing runs the frame script on four tiles — the
// frames of boundary transmitters and of the jammer are read by other
// tiles' workers — and requires every radio to decode exactly what the
// sequential channel delivers. Under -race it is also the proof that
// sharing one read-only frame across tiles is free of data races: every
// listener rewrites its copy and every sender rewrites its original.
func TestTiledFrameSharing(t *testing.T) {
	want, _ := frameScript(t, 1)
	got, crossed := frameScript(t, 4)
	if crossed == 0 {
		t.Fatal("no delivery crossed a tile boundary; the script does not exercise frame sharing")
	}
	decoded := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("radio %d decoded\n  tiled:      %s\n  sequential: %s", i, got[i], want[i])
		}
		if want[i] != "" {
			decoded++
		}
	}
	if decoded != len(want) {
		t.Fatalf("only %d of %d radios decoded anything", decoded, len(want))
	}
}
