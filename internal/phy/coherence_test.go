package phy

import (
	"math/rand"
	"reflect"
	"testing"

	"routeless/internal/geo"
	"routeless/internal/metrics"
	"routeless/internal/packet"
	"routeless/internal/propagation"
	"routeless/internal/sim"
)

// The link cache is a pure optimization: a cached channel must produce
// byte-for-byte the same simulation as the recompute-every-time
// reference path (ChannelConfig.noLinkCache). These tests run the same
// scripted scenario — traffic interleaved with MoveTo and SetTxPower —
// through both channels and require every observable to match exactly:
// channel counters, per-radio counters, and each delivered frame's
// source, UID, receive power (bitwise float64), and delivery time.

// coherenceDelivery is one decoded frame as a receiver saw it.
type coherenceDelivery struct {
	From packet.NodeID
	UID  uint64
	RSSI float64
	At   sim.Time
}

// coherenceSnapshot is everything observable about a finished run.
type coherenceSnapshot struct {
	Channel    ChannelStats
	Radios     [][numRadioSeries]metrics.Counter32
	Deliveries [][]coherenceDelivery
}

// runCoherenceScenario drives a deterministic script over a fresh
// channel: round-robin broadcasts, periodic node moves, and periodic
// transmit power changes, all from fixed seeds.
func runCoherenceScenario(fade bool, noCache bool) coherenceSnapshot {
	const (
		n       = 24
		terrain = 1200.0
		rangeM  = 300.0
		steps   = 160
		spacing = sim.Time(2e-3)
	)
	posRng := rand.New(rand.NewSource(77))
	positions := make([]geo.Point, n)
	for i := range positions {
		positions[i] = geo.Point{
			X: posRng.Float64() * terrain,
			Y: posRng.Float64() * terrain,
		}
	}

	k := sim.NewKernel(1)
	model := propagation.NewFreeSpace()
	params := DefaultParams(model, rangeM)
	cfg := ChannelConfig{Model: model, noLinkCache: noCache}
	if fade {
		cfg.Fader = propagation.LogNormalShadow{SigmaDB: 6}
		cfg.FadeMarginDB = 12
		cfg.Rng = rand.New(rand.NewSource(99))
	}
	ch := NewChannel(k, geo.NewRect(terrain, terrain), positions, params, cfg)

	deliveries := make([][]coherenceDelivery, n)
	for i := 0; i < n; i++ {
		i := i
		rec := &funcListener{onReceive: func(p *packet.Packet, rssi float64) {
			deliveries[i] = append(deliveries[i], coherenceDelivery{
				From: p.From, UID: p.UID, RSSI: rssi, At: k.Now(),
			})
		}}
		ch.Radio(i).SetListener(rec)
	}

	// The script itself must not consume channel randomness, so it draws
	// from its own stream.
	scriptRng := rand.New(rand.NewSource(1234))
	for step := 0; step < steps; step++ {
		step := step
		src := step % n
		at := spacing * sim.Time(step+1)
		k.At(at, func() {
			if ch.Radio(src).State() == StateIdle {
				ch.Radio(src).Transmit(&packet.Packet{
					Kind: packet.KindData, To: packet.Broadcast,
					Origin: packet.NodeID(src), Seq: uint32(step), Size: 100,
				})
			}
		})
		if step%7 == 3 {
			mover := (step * 5) % n
			dest := geo.Point{
				X: scriptRng.Float64() * terrain,
				Y: scriptRng.Float64() * terrain,
			}
			// Nudge the move off the transmit instants so it lands between
			// frames, interleaved with in-flight traffic.
			k.At(at+spacing/2, func() { ch.MoveTo(mover, dest) })
		}
		if step%11 == 5 {
			tuned := (step * 3) % n
			delta := scriptRng.Float64()*4 - 2
			k.At(at+spacing/4, func() {
				ch.Radio(tuned).SetTxPower(params.TxPowerDBm + delta)
			})
		}
	}
	k.Run()

	snap := coherenceSnapshot{
		Channel:    ch.Stats(),
		Radios:     make([][numRadioSeries]metrics.Counter32, n),
		Deliveries: deliveries,
	}
	for i := 0; i < n; i++ {
		snap.Radios[i] = ch.Radio(i).stats
	}
	return snap
}

// funcListener adapts a function to the Listener interface.
type funcListener struct {
	onReceive func(*packet.Packet, float64)
}

func (f *funcListener) OnReceive(p *packet.Packet, rssi float64) { f.onReceive(p, rssi) }
func (f *funcListener) OnMediumBusy()                            {}
func (f *funcListener) OnMediumIdle()                            {}
func (f *funcListener) OnTxDone()                                {}

func checkCoherence(t *testing.T, fade bool) {
	t.Helper()
	cached := runCoherenceScenario(fade, false)
	reference := runCoherenceScenario(fade, true)
	if cached.Channel != reference.Channel {
		t.Errorf("ChannelStats diverge: cached %+v, reference %+v",
			cached.Channel, reference.Channel)
	}
	for i := range cached.Radios {
		if cached.Radios[i] != reference.Radios[i] {
			t.Errorf("radio %d stats diverge: cached %+v, reference %+v",
				i, cached.Radios[i], reference.Radios[i])
		}
	}
	for i := range cached.Deliveries {
		if !reflect.DeepEqual(cached.Deliveries[i], reference.Deliveries[i]) {
			t.Errorf("radio %d deliveries diverge: cached %d frames, reference %d frames",
				i, len(cached.Deliveries[i]), len(reference.Deliveries[i]))
		}
	}
	if cached.Channel.Deliveries == 0 {
		t.Fatal("scenario scheduled no deliveries; the comparison is vacuous")
	}
}

// TestLinkCacheBitwiseEquivalent proves the cached channel equals the
// reference channel on a static-power deterministic medium with
// mobility interleaved with traffic.
func TestLinkCacheBitwiseEquivalent(t *testing.T) {
	checkCoherence(t, false)
}

// TestLinkCacheBitwiseEquivalentFading repeats the proof with a fading
// channel, where equivalence additionally requires the cached path to
// consume fading draws for exactly the same receivers in exactly the
// same (ascending id) order.
func TestLinkCacheBitwiseEquivalentFading(t *testing.T) {
	checkCoherence(t, true)
}

// TestMoveToInvalidatesStaleLinks pins the invalidation contract with a
// hand-built three-node line: after the far node moves into range, a
// transmitter with a warm cache must reach it.
func TestMoveToInvalidatesStaleLinks(t *testing.T) {
	k, ch, recs := testChannel(t, pts(0, 0, 100, 0, 2500, 0), 250)
	// Warm node 0's cache: node 2 is far outside the cutoff.
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[1].rx) != 1 || len(recs[2].rx) != 0 {
		t.Fatalf("warm-up: rx counts = %d, %d", len(recs[1].rx), len(recs[2].rx))
	}
	// Move node 2 next to the transmitter; the move must invalidate
	// node 0's cached link list even though node 0 itself never moved.
	ch.MoveTo(2, geo.Point{X: 150, Y: 0})
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[2].rx) != 1 {
		t.Fatalf("after MoveTo into range: node 2 rx = %d, want 1", len(recs[2].rx))
	}
	// And the reverse: moving out of range must stop deliveries.
	ch.MoveTo(2, geo.Point{X: 2500, Y: 0})
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[2].rx) != 1 {
		t.Fatalf("after MoveTo out of range: node 2 rx = %d, want 1", len(recs[2].rx))
	}
}
