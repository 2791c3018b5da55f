package phy

import (
	"testing"

	"routeless/internal/geo"
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
			if len(recs[i].rx) != 1 || recs[i].rx[0] != onAir {
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
	var live []signal
	k.Schedule(0.004, func() {
		tx := ch.Radio(0).txLive
		ch.Radio(0).TurnOff()
		live = tx.signals
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

// pinnedSlots counts the signal pointers r keeps in inAir's backing
// array beyond its length: stale slots the collector still scans, which
// would keep a released or dropped transmission slab alive.
func pinnedSlots(r *Radio) int {
	n := 0
	for _, s := range r.inAir[len(r.inAir):cap(r.inAir)] {
		if s != nil {
			n++
		}
	}
	return n
}

func TestInAirReleasesVacatedSlots(t *testing.T) {
	// A trailing edge's removal: two overlapping frames at radio 1 leave
	// its in-air set one by one.
	k, ch, _ := testChannel(t, pts(0, 0, 100, 0, 200, 0), 250)
	ch.Radio(0).Transmit(pkt(100))
	ch.Radio(2).Transmit(pkt(100))
	k.Run()
	if r := ch.Radio(1); cap(r.inAir) < 2 || pinnedSlots(r) != 0 {
		t.Fatalf("after both trailing edges radio 1 pins %d of %d slots", pinnedSlots(r), cap(r.inAir))
	}

	// A power-down with frames on the air.
	k, ch, _ = testChannel(t, pts(0, 0, 100, 0, 200, 0), 250)
	ch.Radio(0).Transmit(pkt(1000))
	ch.Radio(2).Transmit(pkt(1000))
	k.RunUntil(0.004)
	r := ch.Radio(1)
	if len(r.inAir) != 2 {
		t.Fatalf("radio 1 has %d signals in the air mid-frame, want 2", len(r.inAir))
	}
	r.TurnOff()
	if pinnedSlots(r) != 0 {
		t.Fatalf("after TurnOff radio 1 pins %d slots", pinnedSlots(r))
	}

	// A pooled arena reused by a smaller run, after a run stopped with
	// frames on the air: no radio of the arena, reused or not, keeps a
	// signal or the old channel.
	pools := NewPools()
	model := propagation.NewFreeSpace()
	params := DefaultParams(model, 250)
	k = sim.NewKernel(1)
	ch = NewChannel(k, geo.NewRect(3000, 3000), pts(0, 0, 100, 0, 200, 0), params, ChannelConfig{Model: model, Pools: pools})
	ch.Radio(0).Transmit(pkt(1000))
	k.RunUntil(0.004)
	if len(ch.Radio(2).inAir) != 1 {
		t.Fatal("radio 2 should hold a signal when the first run stops")
	}
	NewChannel(sim.NewKernel(2), geo.NewRect(3000, 3000), pts(0, 0), params, ChannelConfig{Model: model, Pools: pools})
	arena := pools.radios[:cap(pools.radios)]
	for i := range arena {
		r := &arena[i]
		if len(r.inAir) != 0 || pinnedSlots(r) != 0 {
			t.Fatalf("arena radio %d keeps %d signals and pins %d slots", i, len(r.inAir), pinnedSlots(r))
		}
		if i > 0 && r.channel != nil {
			t.Fatalf("unused arena radio %d still points at the first run's channel", i)
		}
	}
}
