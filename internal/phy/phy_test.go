package phy

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"routeless/internal/geo"
	"routeless/internal/metrics"
	"routeless/internal/packet"
	"routeless/internal/propagation"
	"routeless/internal/rng"
	"routeless/internal/sim"
)

// recorder is a test Listener capturing all PHY indications. A decoded
// packet is lent for the OnReceive call only, so it records a copy.
type recorder struct {
	rx      []packet.Packet
	rssi    []float64
	rxTimes []sim.Time
	busy    int
	idle    int
	txDone  int
	kernel  *sim.Kernel
}

func (r *recorder) OnReceive(p *packet.Packet, rssiDBm float64) {
	r.rx = append(r.rx, *p)
	r.rssi = append(r.rssi, rssiDBm)
	if r.kernel != nil {
		r.rxTimes = append(r.rxTimes, r.kernel.Now())
	}
}
func (r *recorder) OnMediumBusy() { r.busy++ }
func (r *recorder) OnMediumIdle() { r.idle++ }
func (r *recorder) OnTxDone()     { r.txDone++ }

func testChannel(t *testing.T, positions []geo.Point, rangeM float64) (*sim.Kernel, *Channel, []*recorder) {
	t.Helper()
	k := sim.NewKernel(1)
	model := propagation.NewFreeSpace()
	params := DefaultParams(model, rangeM)
	ch := NewChannel(k, geo.NewRect(3000, 3000), positions, params, ChannelConfig{Model: model})
	recs := make([]*recorder, len(positions))
	for i := range positions {
		recs[i] = &recorder{kernel: k}
		ch.Radio(i).SetListener(recs[i])
	}
	return k, ch, recs
}

func pkt(size int) *packet.Packet {
	return &packet.Packet{Kind: packet.KindData, To: packet.Broadcast, Size: size}
}

// pts builds a point slice from interleaved x,y coordinates.
func pts(xy ...float64) []geo.Point {
	if len(xy)%2 != 0 {
		panic("pts: odd coordinate count")
	}
	out := make([]geo.Point, len(xy)/2)
	for i := range out {
		out[i] = geo.Point{X: xy[2*i], Y: xy[2*i+1]}
	}
	return out
}

func TestDeliveryInRange(t *testing.T) {
	k, ch, recs := testChannel(t, pts(0, 0, 200, 0), 250)
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[1].rx) != 1 {
		t.Fatalf("receiver got %d frames, want 1", len(recs[1].rx))
	}
	if recs[0].txDone != 1 {
		t.Fatal("transmitter missing OnTxDone")
	}
	// RSSI should match the model exactly (no fading).
	want := ch.MeanPowerAt(0, 1)
	if math.Abs(recs[1].rssi[0]-want) > 1e-9 {
		t.Fatalf("rssi %v, want %v", recs[1].rssi[0], want)
	}
	// Delivery time = propagation delay + airtime.
	airtime := ch.Radio(0).Params().AirTime(100)
	wantT := sim.Time(propagation.Delay(200)) + airtime
	if math.Abs(float64(recs[1].rxTimes[0]-wantT)) > 1e-12 {
		t.Fatalf("delivered at %v, want %v", recs[1].rxTimes[0], wantT)
	}
}

// TestMilliwattThresholdMatchesDB pins decode in the linear domain: on
// a distance sweep that straddles the calibrated 250 m range, and takes
// it exactly, a frame is decoded iff its dB receive power reaches
// RxThreshDBm, and the listener gets MilliwattToDBm of the signal's
// power as RSSI.
func TestMilliwattThresholdMatchesDB(t *testing.T) {
	model := propagation.NewFreeSpace()
	params := DefaultParams(model, 250)
	dists := []float64{250}
	for d := 1.0; d < 600; d += 0.5 {
		dists = append(dists, d)
	}
	for d := 249.99; d < 250.01; d += 1e-4 {
		dists = append(dists, d)
	}
	decoded := 0
	for _, d := range dists {
		k, ch, recs := testChannel(t, pts(0, 0, d, 0), 250)
		ch.Radio(0).Transmit(pkt(100))
		k.Run()
		want := model.ReceivedPower(params.TxPowerDBm, d) >= params.RxThreshDBm
		if got := len(recs[1].rx) == 1; got != want {
			t.Fatalf("d=%v m: decoded=%v, the dB threshold says %v", d, got, want)
		}
		if !want {
			continue
		}
		decoded++
		rssi := propagation.MilliwattToDBm(ch.links[0][0].meanMW)
		if math.Float64bits(recs[1].rssi[0]) != math.Float64bits(rssi) {
			t.Fatalf("d=%v m: rssi %v, want MilliwattToDBm(powerMW) = %v", d, recs[1].rssi[0], rssi)
		}
	}
	if decoded == 0 || decoded == len(dists) {
		t.Fatalf("%d of %d distances decoded: the sweep must straddle the threshold", decoded, len(dists))
	}
}

func TestNoDeliveryOutOfRange(t *testing.T) {
	k, ch, recs := testChannel(t, pts(0, 0, 2000, 0), 250)
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[1].rx) != 0 {
		t.Fatal("out-of-range receiver decoded a frame")
	}
}

func TestGrayZoneSensedNotDecoded(t *testing.T) {
	// Between decode range (250) and carrier-sense range (~550): the
	// medium goes busy but no frame is delivered.
	k, ch, recs := testChannel(t, pts(0, 0, 400, 0), 250)
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[1].rx) != 0 {
		t.Fatal("gray-zone receiver decoded a frame")
	}
	if recs[1].busy == 0 || recs[1].idle == 0 {
		t.Fatalf("carrier transitions busy=%d idle=%d, want both > 0", recs[1].busy, recs[1].idle)
	}
}

func TestCollisionSymmetric(t *testing.T) {
	// Two transmitters equidistant from the middle receiver start at
	// the same time: neither frame survives.
	k, ch, recs := testChannel(t, pts(0, 0, 100, 0, 200, 0), 250)
	ch.Radio(0).Transmit(pkt(100))
	ch.Radio(2).Transmit(pkt(100))
	k.Run()
	if len(recs[1].rx) != 0 {
		t.Fatalf("middle receiver decoded %d frames during collision", len(recs[1].rx))
	}
	if ch.Radio(1).Count(Collisions)+ch.Radio(1).Count(MissedWeak) == 0 {
		t.Fatal("collision not counted")
	}
}

func TestCapture(t *testing.T) {
	// A much closer transmitter (>>10 dB stronger) wins over a distant
	// one that starts later.
	k, ch, recs := testChannel(t, pts(0, 0, 20, 0, 240, 0), 250)
	ch.Radio(0).Transmit(pkt(100)) // strong, locks receiver 1
	ch.Radio(2).Transmit(pkt(100)) // weak interference at 1
	k.Run()
	got := 0
	for _, p := range recs[1].rx {
		if p.From == 0 {
			got++
		}
	}
	if got != 1 {
		t.Fatalf("strong frame not captured: receiver 1 got %d frames from n0", got)
	}
}

func TestHalfDuplexTransmitterDeaf(t *testing.T) {
	k, ch, recs := testChannel(t, pts(0, 0, 100, 0), 250)
	// Both transmit simultaneously: neither hears the other.
	ch.Radio(0).Transmit(pkt(100))
	ch.Radio(1).Transmit(pkt(100))
	k.Run()
	if len(recs[0].rx)+len(recs[1].rx) != 0 {
		t.Fatal("half-duplex radios decoded frames while transmitting")
	}
}

func TestTransmitAbortsReception(t *testing.T) {
	k, ch, recs := testChannel(t, pts(0, 0, 100, 0), 250)
	ch.Radio(0).Transmit(pkt(1000))
	// Node 1 starts its own transmission mid-reception.
	k.Schedule(0.004, func() { ch.Radio(1).Transmit(pkt(100)) })
	k.Run()
	if len(recs[1].rx) != 0 {
		t.Fatal("aborted reception still delivered")
	}
	if ch.Radio(1).Count(AbortedByTx) != 1 {
		t.Fatal("AbortedByTx not counted")
	}
	// Node 1's frame ended while node 0 was still transmitting, so node
	// 0 heard nothing either (half-duplex both ways).
	if len(recs[0].rx) != 0 {
		t.Fatal("node 0 decoded a frame that overlapped its own transmission")
	}
	// Once both radios are idle again, traffic flows normally.
	ch.Radio(1).Transmit(pkt(100))
	k.Run()
	if len(recs[0].rx) != 1 {
		t.Fatal("node 0 should decode node 1's later frame after both went idle")
	}
}

func TestSequentialFramesBothDelivered(t *testing.T) {
	k, ch, recs := testChannel(t, pts(0, 0, 100, 0), 250)
	ch.Radio(0).Transmit(pkt(100))
	air := ch.Radio(0).Params().AirTime(100)
	k.Schedule(air+0.001, func() { ch.Radio(0).Transmit(pkt(100)) })
	k.Run()
	if len(recs[1].rx) != 2 {
		t.Fatalf("got %d frames, want 2", len(recs[1].rx))
	}
}

func TestTurnOffDropsFrames(t *testing.T) {
	k, ch, recs := testChannel(t, pts(0, 0, 100, 0), 250)
	ch.Radio(1).TurnOff()
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[1].rx) != 0 {
		t.Fatal("off radio decoded a frame")
	}
	if ch.Radio(1).Count(DroppedOff) != 1 {
		t.Fatal("DroppedOff not counted")
	}
}

func TestTurnOffMidReceptionLosesFrame(t *testing.T) {
	k, ch, recs := testChannel(t, pts(0, 0, 100, 0), 250)
	ch.Radio(0).Transmit(pkt(1000)) // 8 ms at 1 Mbps
	k.Schedule(0.004, func() { ch.Radio(1).TurnOff() })
	k.Run()
	if len(recs[1].rx) != 0 {
		t.Fatal("frame delivered despite mid-reception power-down")
	}
	if ch.Radio(1).Count(AbortedByOff) != 1 {
		t.Fatal("AbortedByOff not counted")
	}
}

func TestTurnOnMidFrameDoesNotDecode(t *testing.T) {
	k, ch, recs := testChannel(t, pts(0, 0, 100, 0), 250)
	ch.Radio(1).TurnOff()
	ch.Radio(0).Transmit(pkt(1000))
	k.Schedule(0.004, func() { ch.Radio(1).TurnOn() })
	k.Run()
	if len(recs[1].rx) != 0 {
		t.Fatal("radio decoded a frame whose start it never heard")
	}
	// But a later frame decodes fine.
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[1].rx) != 1 {
		t.Fatal("radio did not recover after TurnOn")
	}
}

func TestSleepBehavesLikeOffForReception(t *testing.T) {
	k, ch, recs := testChannel(t, pts(0, 0, 100, 0), 250)
	ch.Radio(1).Sleep()
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[1].rx) != 0 {
		t.Fatal("sleeping radio decoded a frame")
	}
	if ch.Radio(1).State() != StateSleep {
		t.Fatal("state should be sleep")
	}
}

func TestTransmitWhileOffPanics(t *testing.T) {
	_, ch, _ := testChannel(t, pts(0, 0, 100, 0), 250)
	ch.Radio(0).TurnOff()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ch.Radio(0).Transmit(pkt(100))
}

func TestCarrierBusyDuringOwnTx(t *testing.T) {
	k, ch, _ := testChannel(t, pts(0, 0, 100, 0), 250)
	ch.Radio(0).Transmit(pkt(1000))
	if !ch.Radio(0).CarrierBusy() {
		t.Fatal("transmitting radio should sense busy")
	}
	k.Run()
	if ch.Radio(0).CarrierBusy() {
		t.Fatal("idle radio senses busy")
	}
}

// Property: the running in-air sum is the fold it replaces. After every
// event of a random script of overlapping frames, power-downs and
// power-ups among radios at scattered distances, each radio's airMW is
// bit-equal to a fresh fold over its in-air set in storage order.
func TestQuickAirSumEqualsFold(t *testing.T) {
	deepest := 0
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(1)
		model := propagation.NewFreeSpace()
		const n = 8
		positions := make([]geo.Point, n)
		for i := range positions {
			positions[i] = geo.Point{X: 400 * rnd.Float64(), Y: 400 * rnd.Float64()}
		}
		ch := NewChannel(k, geo.NewRect(400, 400), positions, DefaultParams(model, 250), ChannelConfig{Model: model})
		for i := range n {
			ch.Radio(i).SetListener(nullListener{})
		}
		for range 60 {
			r, op := ch.Radio(rnd.Intn(n)), rnd.Intn(8)
			k.At(sim.Time(0.02*rnd.Float64()), func() {
				switch {
				case op < 5:
					if r.On() && r.State() != StateTx {
						r.Transmit(pkt(64 + rnd.Intn(448)))
					}
				case op == 5:
					r.TurnOff()
				case op == 6:
					r.Sleep()
				default:
					r.TurnOn()
				}
			})
		}
		for k.Step() {
			for i := range n {
				r := ch.Radio(i)
				deepest = max(deepest, len(r.inAir))
				if got, want := r.airMW, r.foldAirMW(); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("seed %d at %v: radio %d holds %v mW, its %d signals fold to %v", seed, k.Now(), i, got, len(r.inAir), want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if deepest < 3 {
		t.Fatalf("no radio held more than %d signals: removal order never mattered", deepest)
	}
}

// scribbler is a recorder that, after recording a received packet by
// value, rewrites every field of it — the most a Listener is allowed to
// do with its copy.
type scribbler struct {
	recorder
	got []packet.Packet
}

func (s *scribbler) OnReceive(p *packet.Packet, rssiDBm float64) {
	s.got = append(s.got, *p)
	*p = garbagePacket()
	s.recorder.OnReceive(p, rssiDBm)
}

func garbagePacket() packet.Packet {
	return packet.Packet{
		From: 77, To: 78, Kind: packet.KindRERR, Origin: 79, Target: 80,
		Seq: 81, HopCount: 82, ExpectedHops: 83, TTL: 84, Size: 85,
		CreatedAt: 86, UID: 87, Payload: "scribbled",
	}
}

func TestReceiverCopiesAreIndependent(t *testing.T) {
	// Receivers at 100, 141 and 200 m hear the trailing edge in that
	// order; the nearest rewrites every field of what it is lent. Each
	// receiver is handed a fresh copy of the frozen frame, so neither the
	// later receivers nor the sender's own packet (the MAC's ARQ copy)
	// may see any of the scribble.
	k, ch, recs := testChannel(t, pts(0, 0, 100, 0, 100, 100, 200, 0), 250)
	scrib := &scribbler{}
	ch.Radio(1).SetListener(scrib)
	sent := &packet.Packet{
		Kind: packet.KindData, To: packet.Broadcast, Origin: 0, Target: 3,
		Seq: 9, HopCount: 1, ExpectedHops: 2, TTL: 5, Size: 100,
		CreatedAt: 0.25, Payload: "payload",
	}
	ch.Radio(0).Transmit(sent)
	onAir := *sent // with From and UID filled in by Transmit
	k.Run()
	if len(scrib.got) != 1 || len(recs[2].rx) != 1 || len(recs[3].rx) != 1 {
		t.Fatal("expected all three receivers to decode")
	}
	if scrib.rx[0] != garbagePacket() {
		t.Fatalf("the scribble did not land: receiver 1 holds %+v", scrib.rx[0])
	}
	for i, got := range []packet.Packet{scrib.got[0], recs[2].rx[0], recs[3].rx[0]} {
		if got != onAir {
			t.Fatalf("receiver %d decoded %+v, want %+v", i+1, got, onAir)
		}
	}
	if *sent != onAir {
		t.Fatalf("sender's packet changed to %+v", *sent)
	}
}

// keeper is a Listener that breaks the receive contract on purpose: it
// keeps the lent pointer past the call.
type keeper struct {
	nullListener
	kept   *packet.Packet
	inCall packet.Packet
}

func (k *keeper) OnReceive(p *packet.Packet, _ float64) { k.kept, k.inCall = p, *p }

func TestDecodedFrameIsLentForOneCall(t *testing.T) {
	// A listener sees the frame during the call; a pointer it keeps
	// reads as a zero packet afterwards, not as the next decode.
	k, ch, _ := testChannel(t, pts(0, 0, 100, 0), 250)
	kp := &keeper{}
	ch.Radio(1).SetListener(kp)
	sent := pkt(100)
	sent.Seq = 9
	ch.Radio(0).Transmit(sent)
	k.Run()
	if kp.kept == nil || kp.inCall != *sent {
		t.Fatalf("during the call the listener saw %+v, want %+v", kp.inCall, *sent)
	}
	if *kp.kept != (packet.Packet{}) {
		t.Fatalf("a kept pointer reads %+v after the call, want the zero packet", *kp.kept)
	}

	// Lending allocates nothing: one decode on a warm radio — the
	// leading edge locks it, the trailing edge hands the frame over.
	r := ch.Radio(1)
	f := &frame{pkt: *sent}
	power := ch.MeanPowerAt(0, 1)
	s := &signal{}
	before := r.Count(RxFrames)
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() {
		*s = signal{rcv: 1, powerMW: propagation.DBmToMilliwatt(power)}
		r.signalStart(s)
		r.signalEnd(s, f)
	})
	if got := r.Count(RxFrames) - before; got != runs+1 { // AllocsPerRun warms up once
		t.Fatalf("%d of %d measured edges decoded", got, runs+1)
	}
	if allocs != 0 {
		t.Fatalf("a warm decode allocates %.0f objects, want 0", allocs)
	}
}

func TestAirTime(t *testing.T) {
	p := Params{BitRate: 1e6}
	if at := p.AirTime(125); math.Abs(float64(at)-0.001) > 1e-12 {
		t.Fatalf("AirTime(125B@1Mbps) = %v, want 1ms", at)
	}
}

func TestDefaultParamsCalibration(t *testing.T) {
	m := propagation.NewFreeSpace()
	params := DefaultParams(m, 250)
	r := propagation.RangeFor(m, params.TxPowerDBm, params.RxThreshDBm, 1, 5000)
	if math.Abs(r-250) > 1 {
		t.Fatalf("decode range %v, want ~250", r)
	}
	cs := propagation.RangeFor(m, params.TxPowerDBm, params.CSThreshDBm, 1, 5000)
	if cs < 400 || cs > 700 {
		t.Fatalf("carrier-sense range %v, want ~550", cs)
	}
}

func TestConnected(t *testing.T) {
	k := sim.NewKernel(1)
	model := propagation.NewFreeSpace()
	params := DefaultParams(model, 250)
	// A connected chain.
	chain := NewChannel(k, geo.NewRect(3000, 3000), pts(0, 0, 200, 0, 400, 0), params, ChannelConfig{Model: model})
	if !chain.Connected() {
		t.Fatal("chain should be connected")
	}
	// A split pair.
	split := NewChannel(k, geo.NewRect(3000, 3000), pts(0, 0, 200, 0, 1500, 0), params, ChannelConfig{Model: model})
	if split.Connected() {
		t.Fatal("split topology reported connected")
	}
}

// TestNeighborIDs pins the fault plane's neighbor view: ids ascending
// even where the grid bins them out of order, the node itself left out,
// and blind to link offsets.
func TestNeighborIDs(t *testing.T) {
	// With ~275 m cells, node 2 bins before nodes 1 and 4.
	_, ch, _ := testChannel(t, pts(300, 0, 450, 0, 150, 0, 1500, 0, 300, 100), 250)
	want := []int{1, 2, 4}
	if got := ch.NeighborIDs(nil, 0); !slices.Equal(got, want) {
		t.Fatalf("NeighborIDs(0) = %v, want %v", got, want)
	}
	ch.SetLinkOffset(0, 1, -40)
	if got := ch.NeighborIDs(nil, 0); !slices.Equal(got, want) {
		t.Fatalf("after SetLinkOffset: NeighborIDs(0) = %v, want %v", got, want)
	}
}

func TestEnergyAccounting(t *testing.T) {
	k, ch, _ := testChannel(t, pts(0, 0, 100, 0), 250)
	r := ch.Radio(0)
	ch.Radio(1).TurnOff()
	r.Transmit(pkt(1250)) // 10 ms airtime at 1 Mbps
	k.Run()
	k.RunUntil(1.0)
	e := r.Energy()
	p := DefaultPower()
	wantTx := p.Tx * 0.01
	if got := e.InState(k.Now(), StateTx); math.Abs(got-wantTx) > 1e-9 {
		t.Fatalf("tx energy %v, want %v", got, wantTx)
	}
	wantIdle := p.Idle * 0.99
	if got := e.InState(k.Now(), StateIdle); math.Abs(got-wantIdle) > 1e-6 {
		t.Fatalf("idle energy %v, want %v", got, wantIdle)
	}
	total := e.Total(k.Now())
	if math.Abs(total-(wantTx+wantIdle)) > 1e-6 {
		t.Fatalf("total %v, want %v", total, wantTx+wantIdle)
	}
	// Sleeping is far cheaper than idling.
	e2 := ch.Radio(1).Energy()
	if e2.Total(k.Now()) >= total {
		t.Fatal("off radio consumed at least as much as an active one")
	}
}

func TestFadingChangesRSSI(t *testing.T) {
	k := sim.NewKernel(1)
	model := propagation.NewFreeSpace()
	params := DefaultParams(model, 250)
	ch := NewChannel(k, geo.NewRect(3000, 3000), pts(0, 0, 100, 0), params, ChannelConfig{
		Model:        model,
		Fading:       true,
		FadeMarginDB: 20,
		Rng:          rng.New(7),
	})
	rec := &recorder{}
	ch.Radio(1).SetListener(rec)
	ch.Radio(0).SetListener(&recorder{})
	for i := 0; i < 5; i++ {
		ch.Radio(0).Transmit(pkt(100))
		k.Run()
	}
	if len(rec.rx) == 0 {
		t.Fatal("no frames decoded under fading at 100 m")
	}
	mean := ch.MeanPowerAt(0, 1)
	varies := false
	for _, rssi := range rec.rssi {
		if math.Abs(rssi-mean) > 0.01 {
			varies = true
		}
	}
	if !varies {
		t.Fatal("fading did not perturb RSSI")
	}
}

func TestChannelStats(t *testing.T) {
	k, ch, _ := testChannel(t, pts(0, 0, 100, 0, 200, 0), 250)
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	st := ch.Stats()
	if st.Transmissions != 1 {
		t.Fatalf("Transmissions = %d", st.Transmissions)
	}
	if st.Deliveries != 2 {
		t.Fatalf("Deliveries = %d, want 2", st.Deliveries)
	}
}

func TestStateString(t *testing.T) {
	for s := StateIdle; s <= StateOff; s++ {
		if s.String() == "" {
			t.Fatal("empty state name")
		}
	}
}

func TestCaptureThresholdBoundary(t *testing.T) {
	// Interference exactly at the capture margin: a frame 10 dB above
	// the interferer (plus noise) survives; just below, it dies. Place
	// the interferer so the wanted frame's SINR straddles CaptureDB.
	wanted := 100.0 // distance of wanted transmitter
	// Free space: +10 dB ⇔ ×10 power ⇔ √10 ≈ 3.162× distance.
	survive := wanted * 3.6 // comfortably beyond √10 → SINR > 10 dB
	corrupt := wanted * 2.8 // inside √10 → SINR < 10 dB
	for _, tc := range []struct {
		interferer float64
		delivered  bool
	}{
		{survive, true},
		{corrupt, false},
	} {
		k, ch, recs := testChannel(t, pts(0, 0, wanted, 0, wanted+tc.interferer, 0), 250)
		ch.Radio(0).Transmit(pkt(100))
		ch.Radio(2).Transmit(pkt(100))
		k.Run()
		got := false
		for _, p := range recs[1].rx {
			if p.From == 0 {
				got = true
			}
		}
		if got != tc.delivered {
			t.Fatalf("interferer at %.0f m: delivered=%v, want %v",
				tc.interferer, got, tc.delivered)
		}
	}
}

func TestEnergySleepCheaperThanIdle(t *testing.T) {
	k, ch, _ := testChannel(t, pts(0, 0, 2000, 0), 250)
	ch.Radio(1).Sleep()
	k.RunUntil(100)
	idleJ := ch.Radio(0).Energy().Total(k.Now())
	sleepJ := ch.Radio(1).Energy().Total(k.Now())
	if sleepJ >= idleJ/100 {
		t.Fatalf("sleep %vJ should be orders cheaper than idle %vJ", sleepJ, idleJ)
	}
}

func TestTurnOffMidTransmitTruncates(t *testing.T) {
	// Power-down ordering audit: a radio turned off while transmitting
	// must abort the frame on the channel — receivers that locked onto
	// it count Truncated instead of delivering — and the energy meter
	// must charge Tx draw only up to the power-down instant.
	k, ch, recs := testChannel(t, pts(0, 0, 100, 0), 250)
	ch.Radio(0).Transmit(pkt(1000)) // 8 ms at 1 Mbps
	k.Schedule(0.004, func() { ch.Radio(0).TurnOff() })
	k.Run()
	if len(recs[1].rx) != 0 {
		t.Fatal("receiver decoded a frame whose transmission was powered down mid-air")
	}
	if got := ch.Radio(0).Count(TxAborted); got != 1 {
		t.Fatalf("TxAborted = %d, want 1", got)
	}
	if got := ch.Radio(1).Count(Truncated); got != 1 {
		t.Fatalf("Truncated = %d, want 1", got)
	}
	if recs[0].txDone != 0 {
		t.Fatal("OnTxDone fired for an aborted transmission")
	}
	// Tx draw for exactly [0, 4 ms], zero while off.
	wantJ := 0.004 * DefaultPower().Tx
	if got := ch.Radio(0).Energy().Total(k.Now()); math.Abs(got-wantJ) > 1e-9 {
		t.Fatalf("energy %v J, want %v J", got, wantJ)
	}
	// The radio recovers, and the stale completion event of the
	// truncated transmission must not terminate the new frame early.
	ch.Radio(0).TurnOn()
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[1].rx) != 1 {
		t.Fatal("radio did not recover after mid-transmit TurnOff")
	}
	if recs[0].txDone != 1 {
		t.Fatalf("OnTxDone fired %d times, want 1 (the post-recovery frame only)", recs[0].txDone)
	}
}

func TestSleepMidTransmitTruncates(t *testing.T) {
	// Sleep shares powerDown with TurnOff; the in-flight frame must not
	// decode either way.
	k, ch, recs := testChannel(t, pts(0, 0, 100, 0), 250)
	ch.Radio(0).Transmit(pkt(1000))
	k.Schedule(0.004, func() { ch.Radio(0).Sleep() })
	k.Run()
	if len(recs[1].rx) != 0 {
		t.Fatal("receiver decoded a frame whose sender slept mid-transmission")
	}
	if got := ch.Radio(0).Count(TxAborted); got != 1 {
		t.Fatalf("TxAborted = %d, want 1", got)
	}
}

func TestLinkCacheFollowsReceiverMove(t *testing.T) {
	// Invalidation contract (see Channel.MoveTo): a receiver that moves
	// after a transmitter's link cache was built must be seen at its new
	// position by the very next transmission.
	k, ch, recs := testChannel(t, pts(0, 0, 100, 0), 250)
	ch.Radio(0).Transmit(pkt(100)) // builds node 0's link cache
	k.Run()
	if len(recs[1].rx) != 1 {
		t.Fatalf("baseline delivery failed: %d frames", len(recs[1].rx))
	}
	// Out of range: the cached link to node 1 must not deliver.
	ch.MoveTo(1, geo.Point{X: 2500, Y: 0})
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[1].rx) != 1 {
		t.Fatal("moved-away receiver still got a frame from a stale link cache")
	}
	// Back in range, different position: delivered again, with the RSSI
	// of the new distance, not the cached one.
	ch.MoveTo(1, geo.Point{X: 200, Y: 0})
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[1].rx) != 2 {
		t.Fatal("moved-back receiver missing from the rebuilt link cache")
	}
	if want := ch.MeanPowerAt(0, 1); math.Abs(recs[1].rssi[1]-want) > 1e-9 {
		t.Fatalf("rssi %v, want %v (stale cached power?)", recs[1].rssi[1], want)
	}
}

func TestLinkCacheSeesMoveIntoRange(t *testing.T) {
	// The mirror case: a node absent from the cached receiver set (too
	// far when the cache was built) moves into range and must appear.
	k, ch, recs := testChannel(t, pts(0, 0, 2500, 0), 250)
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[1].rx) != 0 {
		t.Fatal("out-of-range receiver decoded a frame")
	}
	ch.MoveTo(1, geo.Point{X: 100, Y: 0})
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[1].rx) != 1 {
		t.Fatal("receiver that moved into range missing from the link cache")
	}
}

func TestLinkCacheSurvivesReceiverOffOn(t *testing.T) {
	// Power state is a radio property, not a link property: a cached
	// receiver that turns off drops frames at its own radio (DroppedOff),
	// and receives again after TurnOn without any cache rebuild.
	k, ch, recs := testChannel(t, pts(0, 0, 100, 0), 250)
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[1].rx) != 1 {
		t.Fatalf("baseline delivery failed: %d frames", len(recs[1].rx))
	}
	ch.Radio(1).TurnOff()
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[1].rx) != 1 {
		t.Fatal("off receiver decoded a frame")
	}
	if got := ch.Radio(1).Count(DroppedOff); got != 1 {
		t.Fatalf("DroppedOff = %d, want 1 (cache must still schedule the delivery)", got)
	}
	ch.Radio(1).TurnOn()
	ch.Radio(0).Transmit(pkt(100))
	k.Run()
	if len(recs[1].rx) != 2 {
		t.Fatal("receiver did not receive after TurnOn")
	}
}

// TestTableIsTheSchema pins the series table to the index constants:
// a constant added without a name (or the reverse) fails here, not as a
// shifted journal column.
func TestTableIsTheSchema(t *testing.T) {
	for _, tc := range []struct {
		prefix string
		table  metrics.Table
		n      int
	}{
		{"phy.", radioTable, int(numRadioSeries)},
	} {
		if len(tc.table.Counters) != tc.n {
			t.Errorf("%s table names %d counters, the block has %d", tc.prefix, len(tc.table.Counters), tc.n)
		}
		for i, name := range append(slices.Clone(tc.table.Counters), tc.table.Hists...) {
			if !strings.HasPrefix(name, tc.prefix) || len(name) == len(tc.prefix) {
				t.Errorf("%s series %d is named %q", tc.prefix, i, name)
			}
		}
	}
}
