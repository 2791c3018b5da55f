package mac

import (
	"slices"
	"strings"
	"testing"

	"routeless/internal/geo"
	"routeless/internal/metrics"
	"routeless/internal/packet"
	"routeless/internal/phy"
	"routeless/internal/propagation"
	"routeless/internal/rng"
	"routeless/internal/sim"
)

// netRecorder is a test Handler. A delivered packet is lent for the
// OnDeliver call only, so it records a copy.
type netRecorder struct {
	delivered []packet.Packet
	rssi      []float64
	sent      []*packet.Packet
	failed    []*packet.Packet
}

func (n *netRecorder) OnDeliver(p *packet.Packet, r float64) {
	n.delivered = append(n.delivered, *p)
	n.rssi = append(n.rssi, r)
}
func (n *netRecorder) OnSent(p *packet.Packet)          { n.sent = append(n.sent, p) }
func (n *netRecorder) OnUnicastFailed(p *packet.Packet) { n.failed = append(n.failed, p) }

// rig builds a kernel, channel, and one MAC+recorder per position.
func rig(t *testing.T, positions []geo.Point) (*sim.Kernel, *phy.Channel, []*MAC, []*netRecorder) {
	t.Helper()
	k := sim.NewKernel(3)
	model := propagation.NewFreeSpace()
	params := phy.DefaultParams(model, 250)
	ch := phy.NewChannel(k, geo.NewRect(3000, 3000), positions, params, phy.ChannelConfig{Model: model})
	macs := make([]*MAC, len(positions))
	recs := make([]*netRecorder, len(positions))
	cfg := DefaultConfig()
	for i := range positions {
		macs[i] = New(k, ch.Radio(i), &cfg, rng.ForNode(1, rng.StreamMAC, i))
		recs[i] = &netRecorder{}
		macs[i].SetHandler(recs[i])
	}
	return k, ch, macs, recs
}

func pts(xy ...float64) []geo.Point {
	out := make([]geo.Point, len(xy)/2)
	for i := range out {
		out[i] = geo.Point{X: xy[2*i], Y: xy[2*i+1]}
	}
	return out
}

func bcast(seq uint32) *packet.Packet {
	return &packet.Packet{
		Kind: packet.KindData, To: packet.Broadcast, Origin: 0,
		Seq: seq, Size: packet.SizeData,
	}
}

func unicast(to packet.NodeID, seq uint32) *packet.Packet {
	return &packet.Packet{
		Kind: packet.KindData, To: to, Origin: 0, Target: to,
		Seq: seq, Size: packet.SizeData,
	}
}

func TestBroadcastDelivery(t *testing.T) {
	k, _, macs, recs := rig(t, pts(0, 0, 100, 0, 200, 0))
	macs[0].Enqueue(bcast(1), 0)
	k.Run()
	if len(recs[1].delivered) != 1 || len(recs[2].delivered) != 1 {
		t.Fatalf("deliveries: n1=%d n2=%d, want 1 each",
			len(recs[1].delivered), len(recs[2].delivered))
	}
	if len(recs[0].sent) != 1 {
		t.Fatal("sender missing OnSent")
	}
	if recs[1].rssi[0] >= 0 || recs[1].rssi[0] < -100 {
		t.Fatalf("implausible rssi %v", recs[1].rssi[0])
	}
}

func TestBroadcastNoAck(t *testing.T) {
	k, _, macs, _ := rig(t, pts(0, 0, 100, 0))
	macs[0].Enqueue(bcast(1), 0)
	k.Run()
	if macs[1].Count(TxAcks) != 0 {
		t.Fatal("broadcast frames must not be acknowledged")
	}
}

func TestUnicastAcked(t *testing.T) {
	k, _, macs, recs := rig(t, pts(0, 0, 100, 0))
	macs[0].Enqueue(unicast(1, 1), 0)
	k.Run()
	if len(recs[1].delivered) != 1 {
		t.Fatal("unicast not delivered")
	}
	if len(recs[0].sent) != 1 {
		t.Fatal("sender missing OnSent after ACK")
	}
	if macs[1].Count(TxAcks) != 1 {
		t.Fatalf("TxAcks = %d, want 1", macs[1].Count(TxAcks))
	}
	if macs[0].Count(AcksReceived) != 1 {
		t.Fatalf("AcksReceived = %d, want 1", macs[0].Count(AcksReceived))
	}
	if len(recs[0].failed) != 0 {
		t.Fatal("spurious unicast failure")
	}
}

func TestUnicastToDeadNeighborFails(t *testing.T) {
	k, ch, macs, recs := rig(t, pts(0, 0, 100, 0))
	ch.Radio(1).TurnOff()
	macs[1].Pause()
	macs[0].Enqueue(unicast(1, 1), 0)
	k.Run()
	if len(recs[0].failed) != 1 {
		t.Fatalf("failed = %d, want 1 (retry limit exhausted)", len(recs[0].failed))
	}
	if macs[0].Count(Retries) != uint64(DefaultConfig().RetryLimit)+1 {
		t.Fatalf("Retries = %d, want %d", macs[0].Count(Retries), DefaultConfig().RetryLimit+1)
	}
	// Every retry is a MAC transmission: retry limit + 1 originals.
	if macs[0].Count(TxFrames) != uint64(DefaultConfig().RetryLimit)+1 {
		t.Fatalf("TxFrames = %d, want %d", macs[0].Count(TxFrames), DefaultConfig().RetryLimit+1)
	}
}

func TestOverhearingPromiscuous(t *testing.T) {
	// Node 2 is in range of node 0's unicast to node 1: it must still
	// see the frame (Routeless Routing depends on passive listening).
	k, _, macs, recs := rig(t, pts(0, 0, 100, 0, 0, 100))
	macs[0].Enqueue(unicast(1, 1), 0)
	k.Run()
	if len(recs[2].delivered) != 1 {
		t.Fatal("bystander did not overhear the unicast")
	}
	if recs[2].delivered[0].To != 1 {
		t.Fatal("overheard frame lost its MAC destination")
	}
	// But the bystander must not ACK it.
	if macs[2].Count(TxAcks) != 0 {
		t.Fatal("bystander acknowledged a frame not addressed to it")
	}
}

func TestPriorityQueueOrdersTransmissions(t *testing.T) {
	k, _, macs, recs := rig(t, pts(0, 0, 100, 0))
	// While the first frame contends, enqueue three more with inverted
	// priorities; they must come out lowest-priority-value first.
	macs[0].Enqueue(bcast(1), 0)
	macs[0].Enqueue(bcast(2), 30)
	macs[0].Enqueue(bcast(3), 10)
	macs[0].Enqueue(bcast(4), 20)
	k.Run()
	var seqs []uint32
	for _, p := range recs[1].delivered {
		seqs = append(seqs, p.Seq)
	}
	want := []uint32{1, 3, 4, 2}
	if len(seqs) != len(want) {
		t.Fatalf("delivered %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("delivered order %v, want %v", seqs, want)
		}
	}
}

func TestEqualPriorityFIFO(t *testing.T) {
	k, _, macs, recs := rig(t, pts(0, 0, 100, 0))
	for s := uint32(1); s <= 5; s++ {
		macs[0].Enqueue(bcast(s), 7)
	}
	k.Run()
	for i, p := range recs[1].delivered {
		if p.Seq != uint32(i+1) {
			t.Fatalf("FIFO violated at %d: seq %d", i, p.Seq)
		}
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	k, _, macs, _ := rig(t, pts(0, 0, 100, 0))
	cfgCap := DefaultConfig().QueueCap
	for s := 0; s < cfgCap+10; s++ {
		macs[0].Enqueue(bcast(uint32(s)), 0)
	}
	k.Run()
	if macs[0].Count(DroppedFull) == 0 {
		t.Fatal("overflow did not drop")
	}
	// One frame is promoted out of the queue immediately, so cap+1 fit.
	if macs[0].Count(DroppedFull) != uint64(10-1) {
		t.Fatalf("DroppedFull = %d, want 9", macs[0].Count(DroppedFull))
	}
}

func TestCarrierSenseDefers(t *testing.T) {
	// Two senders with a common receiver: both frames must arrive
	// (CSMA serializes them) rather than collide.
	k, _, macs, recs := rig(t, pts(0, 0, 100, 0, 200, 0))
	macs[0].Enqueue(bcast(1), 0)
	macs[2].Enqueue(&packet.Packet{
		Kind: packet.KindData, To: packet.Broadcast, Origin: 2, Seq: 2, Size: packet.SizeData,
	}, 0)
	k.Run()
	if len(recs[1].delivered) != 2 {
		t.Fatalf("receiver got %d frames, want 2 (CSMA should serialize)", len(recs[1].delivered))
	}
}

func TestManyContendersAllDeliver(t *testing.T) {
	// Five co-located senders, one receiver: random backoff should let
	// all five frames through eventually.
	k, _, macs, recs := rig(t, pts(0, 0, 50, 0, 0, 50, 50, 50, 25, 25, 100, 100))
	for i := 0; i < 5; i++ {
		macs[i].Enqueue(&packet.Packet{
			Kind: packet.KindData, To: packet.Broadcast,
			Origin: packet.NodeID(i), Seq: 1, Size: packet.SizeData,
		}, 0)
	}
	k.Run()
	from := map[packet.NodeID]bool{}
	for _, p := range recs[5].delivered {
		from[p.Origin] = true
	}
	if len(from) < 4 {
		t.Fatalf("receiver heard only %d/5 senders", len(from))
	}
}

func TestPauseResume(t *testing.T) {
	k, ch, macs, recs := rig(t, pts(0, 0, 100, 0))
	macs[0].Enqueue(bcast(1), 0)
	// Pause before the frame can win contention.
	ch.Radio(0).TurnOff()
	macs[0].Pause()
	if !macs[0].Paused() {
		t.Fatal("not paused")
	}
	k.RunUntil(1.0)
	if len(recs[1].delivered) != 0 {
		t.Fatal("paused MAC transmitted")
	}
	ch.Radio(0).TurnOn()
	macs[0].Resume()
	k.Run()
	if len(recs[1].delivered) != 1 {
		t.Fatal("frame lost across pause/resume")
	}
}

func TestResumeWithoutPauseIsNoop(t *testing.T) {
	_, _, macs, _ := rig(t, pts(0, 0, 100, 0))
	macs[0].Resume() // must not panic or corrupt state
	if macs[0].Paused() {
		t.Fatal("Resume put MAC into paused state")
	}
}

func TestAckNotDeliveredUpward(t *testing.T) {
	k, _, macs, recs := rig(t, pts(0, 0, 100, 0, 0, 100))
	macs[0].Enqueue(unicast(1, 1), 0)
	k.Run()
	for _, r := range recs {
		for _, p := range r.delivered {
			if p.Kind == packet.KindMACAck {
				t.Fatal("MAC ACK leaked to the network layer")
			}
		}
	}
	_ = macs
}

func TestStatsTxCountsIncludeAcks(t *testing.T) {
	k, _, macs, _ := rig(t, pts(0, 0, 100, 0))
	macs[0].Enqueue(unicast(1, 1), 0)
	k.Run()
	if macs[1].Count(TxFrames) != 1 {
		t.Fatalf("receiver TxFrames = %d, want 1 (the ACK)", macs[1].Count(TxFrames))
	}
}

func TestBackToBackUnicastFlows(t *testing.T) {
	k, _, macs, recs := rig(t, pts(0, 0, 100, 0))
	for s := uint32(1); s <= 10; s++ {
		macs[0].Enqueue(unicast(1, s), 0)
	}
	k.Run()
	if len(recs[1].delivered) != 10 {
		t.Fatalf("delivered %d, want 10", len(recs[1].delivered))
	}
	if len(recs[0].sent) != 10 {
		t.Fatalf("sent %d, want 10", len(recs[0].sent))
	}
}

func TestHiddenTerminalCollides(t *testing.T) {
	// Classic hidden-terminal: with carrier-sense range deliberately
	// pulled in to equal the decode range, senders 400 m apart cannot
	// sense each other but share a receiver in the middle. Without
	// RTS/CTS many frames should collide at the receiver. (The default
	// calibration keeps CS ≈ 2.2× decode range precisely to make this
	// rare.)
	k := sim.NewKernel(3)
	model := propagation.NewFreeSpace()
	params := phy.DefaultParams(model, 250)
	params.CSThreshDBm = params.RxThreshDBm // CS range = decode range
	positions := pts(0, 0, 200, 0, 400, 0)
	ch := phy.NewChannel(k, geo.NewRect(3000, 3000), positions, params, phy.ChannelConfig{Model: model})
	macs := make([]*MAC, len(positions))
	recs := make([]*netRecorder, len(positions))
	cfg := DefaultConfig()
	for i := range positions {
		macs[i] = New(k, ch.Radio(i), &cfg, rng.ForNode(3, rng.StreamMAC, i))
		recs[i] = &netRecorder{}
		macs[i].SetHandler(recs[i])
	}
	for s := uint32(1); s <= 20; s++ {
		macs[0].Enqueue(&packet.Packet{Kind: packet.KindData, To: packet.Broadcast, Origin: 0, Seq: s, Size: packet.SizeData}, 0)
		macs[2].Enqueue(&packet.Packet{Kind: packet.KindData, To: packet.Broadcast, Origin: 2, Seq: s, Size: packet.SizeData}, 0)
	}
	k.Run()
	if ch.Radio(1).Count(phy.Collisions)+ch.Radio(1).Count(phy.MissedWeak) == 0 {
		t.Fatal("hidden terminals never collided — carrier sense model suspect")
	}
	if len(recs[1].delivered) == 40 {
		t.Fatal("all 40 frames survived hidden-terminal interference")
	}
}

func TestQueuePanicsOnBadCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newPrioQueue(0)
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
		{"mac.", table, int(numSeries)},
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
