package phy

import (
	"testing"

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
