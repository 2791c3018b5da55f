package routing

import (
	"slices"
	"strings"
	"testing"

	"routeless/internal/geo"
	"routeless/internal/mac"
	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// buildRR constructs a network running Routeless Routing on every node.
func buildRR(t *testing.T, cfg RoutelessConfig, seed int64, positions []geo.Point) (*node.Network, []*Routeless) {
	t.Helper()
	nw := node.Must(node.New(node.Config{Positions: positions, Seed: seed}))
	rrs := make([]*Routeless, len(positions))
	i := 0
	nw.Install(func(n *node.Node) node.Protocol {
		r := NewRouteless(cfg)
		rrs[i] = r
		i++
		return r
	})
	return nw, rrs
}

func line(n int, spacing float64) []geo.Point {
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Point{X: float64(i) * spacing, Y: 0}
	}
	return out
}

func TestRRDirectNeighborDelivery(t *testing.T) {
	nw, rrs := buildRR(t, RoutelessConfig{}, 1, line(2, 150))
	var got []*packet.Packet
	nw.Nodes[1].OnAppReceive = func(p *packet.Packet) { got = append(got, p.Clone()) }
	rrs[0].Send(1, 0)
	nw.Run(5)
	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1", len(got))
	}
	if got[0].HopCount != 1 {
		t.Fatalf("hop count %d, want 1", got[0].HopCount)
	}
	if rrs[0].Count(RRDiscoveriesSent) != 1 || rrs[0].Count(RRDataSent) != 1 {
		t.Fatalf("source sent %d discoveries and %d data, want 1 and 1",
			rrs[0].Count(RRDiscoveriesSent), rrs[0].Count(RRDataSent))
	}
	if rrs[1].Count(RRRepliesSent) != 1 {
		t.Fatal("destination never replied to discovery")
	}
}

func TestRRMultiHopDelivery(t *testing.T) {
	nw, rrs := buildRR(t, RoutelessConfig{}, 2, line(5, 200))
	var got []*packet.Packet
	nw.Nodes[4].OnAppReceive = func(p *packet.Packet) { got = append(got, p.Clone()) }
	rrs[0].Send(4, 0)
	nw.Run(10)
	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1", len(got))
	}
	if got[0].HopCount != 4 {
		t.Fatalf("hop count %d, want 4 on a 5-node line", got[0].HopCount)
	}
	// End-to-end delay includes discovery; must still be well under a
	// second on an idle 4-hop line.
	delay := float64(nw.Kernel.Now()) // upper bound sanity only
	_ = delay
}

func TestRRGradientEstablishedByDiscovery(t *testing.T) {
	nw, rrs := buildRR(t, RoutelessConfig{}, 3, line(4, 200))
	rrs[0].Send(3, 0)
	nw.Run(10)
	// Every node should know its distance to the source (origin 0).
	for i, r := range rrs {
		if i == 0 {
			continue
		}
		if h := r.Table().Hops(0); h != i {
			t.Fatalf("node %d table hops to source = %d, want %d", i, h, i)
		}
	}
	// And the source learned the destination's distance from the reply.
	if h := rrs[0].Table().Hops(3); h != 3 {
		t.Fatalf("source hops to dest = %d, want 3", h)
	}
}

func TestRRSecondPacketSkipsDiscovery(t *testing.T) {
	nw, rrs := buildRR(t, RoutelessConfig{}, 4, line(3, 200))
	count := 0
	nw.Nodes[2].OnAppReceive = func(*packet.Packet) { count++ }
	rrs[0].Send(2, 0)
	nw.Run(5)
	first := rrs[0].Count(RRDiscoveriesSent)
	rrs[0].Send(2, 0)
	nw.Run(10)
	if count != 2 {
		t.Fatalf("delivered %d, want 2", count)
	}
	if rrs[0].Count(RRDiscoveriesSent) != first {
		t.Fatal("second packet triggered another discovery")
	}
}

func TestRRBidirectionalTraffic(t *testing.T) {
	nw, rrs := buildRR(t, RoutelessConfig{}, 1, line(4, 200))
	got := map[packet.NodeID]int{}
	nw.Nodes[0].OnAppReceive = func(p *packet.Packet) { got[0]++ }
	nw.Nodes[3].OnAppReceive = func(p *packet.Packet) { got[3]++ }
	rrs[0].Send(3, 0)
	rrs[3].Send(0, 0)
	nw.Run(10)
	if got[3] != 1 || got[0] != 1 {
		t.Fatalf("deliveries %v, want one each way", got)
	}
}

func TestRRIntermediateFailureReroutes(t *testing.T) {
	// Diamond: source 0, two possible relays 1 (upper) and 2 (lower),
	// destination 3. Kill whichever relay carried the first packet; the
	// next packet must still arrive via the other relay, with no
	// discovery re-flood — the §4.2 "seamless transition" claim.
	positions := []geo.Point{
		{X: 0, Y: 0}, {X: 200, Y: 100}, {X: 200, Y: -100}, {X: 400, Y: 0},
	}
	nw, rrs := buildRR(t, RoutelessConfig{}, 6, positions)
	count := 0
	nw.Nodes[3].OnAppReceive = func(*packet.Packet) { count++ }
	rrs[0].Send(3, 0)
	nw.Run(5)
	if count != 1 {
		t.Fatalf("first packet not delivered (%d)", count)
	}
	discoveriesAfterFirst := rrs[0].Count(RRDiscoveriesSent)
	// Kill the relay that actually forwarded data.
	var relay int
	if rrs[1].Count(RRRelays) > 0 {
		relay = 1
	} else if rrs[2].Count(RRRelays) > 0 {
		relay = 2
	} else {
		t.Fatal("no relay recorded for first packet")
	}
	nw.Nodes[relay].Fail()
	rrs[0].Send(3, 0)
	nw.Run(15)
	if count != 2 {
		t.Fatalf("second packet lost after relay failure (delivered=%d)", count)
	}
	if rrs[0].Count(RRDiscoveriesSent) != discoveriesAfterFirst {
		t.Fatal("failure triggered a re-discovery; Routeless should reroute in place")
	}
	other := 3 - relay // the surviving relay (1↔2)
	if rrs[other].Count(RRRelays) == 0 {
		t.Fatal("surviving relay never carried the rerouted packet")
	}
}

func TestRRCancellationSuppressesRedundantRelays(t *testing.T) {
	// Several co-located candidate relays: exactly one should usually
	// win each hop; the rest cancel on overhear or ACK.
	positions := []geo.Point{
		{X: 0, Y: 0},
		{X: 200, Y: 0}, {X: 200, Y: 30}, {X: 200, Y: -30},
		{X: 400, Y: 0},
	}
	nw, rrs := buildRR(t, RoutelessConfig{}, 7, positions)
	count := 0
	nw.Nodes[4].OnAppReceive = func(*packet.Packet) { count++ }
	rrs[0].Send(4, 0)
	nw.Run(10)
	if count != 1 {
		t.Fatalf("delivered %d, want 1", count)
	}
	var relays, cancels uint64
	for _, r := range rrs[1:4] {
		relays += r.Count(RRRelays)
		cancels += r.Count(RRCancelledByOverhear) + r.Count(RRCancelledByAck)
	}
	if relays == 0 {
		t.Fatal("no middle relay carried the packet")
	}
	if cancels == 0 {
		t.Fatal("no cancellations among co-located candidates")
	}
	if relays > 2 {
		t.Fatalf("%d middle relays transmitted the same data packet", relays)
	}
}

func TestRRArbiterRetransmitsThroughGap(t *testing.T) {
	// The destination's reply must survive an unlucky first
	// transmission. Simulate by failing the sole relay during the
	// discovery phase and recovering it before the retransmission.
	nw, rrs := buildRR(t, RoutelessConfig{}, 8, line(3, 200))
	count := 0
	nw.Nodes[2].OnAppReceive = func(*packet.Packet) { count++ }
	rrs[0].Send(2, 0)
	// Fail the middle relay just before the reply flows back and keep
	// it down past the relay timeout: the reply originator must
	// retransmit into the gap before recovery completes the path.
	nw.Kernel.Schedule(0.012, func() { nw.Nodes[1].Fail() })
	nw.Kernel.Schedule(0.5, func() { nw.Nodes[1].Recover() })
	nw.Run(20)
	if count != 1 {
		t.Fatalf("delivered %d, want 1 (arbiter retransmission should recover)", count)
	}
	if rrs[2].Count(RRRetransmissions)+rrs[0].Count(RRRetransmissions) == 0 {
		t.Fatal("no retransmissions recorded despite the outage window")
	}
}

func TestRRNoRouteGivesUp(t *testing.T) {
	// Destination unreachable (out of range): discovery retries then
	// drops the queued data.
	positions := []geo.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 2500, Y: 0}}
	nw, rrs := buildRR(t, RoutelessConfig{}, 9, positions)
	rrs[0].Send(2, 0)
	nw.Run(10)
	if rrs[0].Count(RRDroppedNoRoute) != 1 {
		t.Fatalf("DroppedNoRoute = %d, want 1", rrs[0].Count(RRDroppedNoRoute))
	}
	if rrs[0].Count(RRDiscoveriesSent) != 1+maxDiscoveryRetries {
		t.Fatalf("DiscoveriesSent = %d, want %d", rrs[0].Count(RRDiscoveriesSent), 1+maxDiscoveryRetries)
	}
}

func TestRRSendToSelf(t *testing.T) {
	nw, rrs := buildRR(t, RoutelessConfig{}, 10, line(2, 150))
	count := 0
	nw.Nodes[0].OnAppReceive = func(*packet.Packet) { count++ }
	rrs[0].Send(0, 0)
	nw.Run(1)
	if count != 1 {
		t.Fatalf("self-delivery count %d, want 1", count)
	}
	if nw.MACPackets() != 0 {
		t.Fatal("self-send put frames on the air")
	}
}

func TestRRDataStreamOverChain(t *testing.T) {
	nw, rrs := buildRR(t, RoutelessConfig{}, 11, line(4, 200))
	count := 0
	nw.Nodes[3].OnAppReceive = func(*packet.Packet) { count++ }
	for i := 0; i < 10; i++ {
		at := sim.Time(1 + float64(i)*0.5)
		nw.Kernel.At(at, func() { rrs[0].Send(3, 0) })
	}
	nw.Run(20)
	if count < 9 {
		t.Fatalf("delivered %d/10", count)
	}
}

func TestRRStateGC(t *testing.T) {
	nw, rrs := buildRR(t, RoutelessConfig{}, 12, line(3, 200))
	rrs[0].Send(2, 0)
	nw.Run(60) // several GC sweeps
	for i, r := range rrs {
		if len(r.relays) != 0 {
			t.Fatalf("node %d still holds %d relay states after GC", i, len(r.relays))
		}
	}
}

func TestRRTTLBoundsRelaying(t *testing.T) {
	// The target sits one hop beyond the hop limit: the discovery flood
	// dies at the node HopLimit hops out and never reaches it.
	n := packet.HopLimit + 2
	nw := node.Must(node.New(node.Config{Positions: line(n, 200), Rect: geo.NewRect(float64(n)*200, 100), Seed: 13}))
	rrs := make([]*Routeless, n)
	nw.Install(func(nd *node.Node) node.Protocol {
		rrs[nd.ID] = NewRouteless(RoutelessConfig{})
		return rrs[nd.ID]
	})
	count := 0
	nw.Nodes[n-1].OnAppReceive = func(*packet.Packet) { count++ }
	rrs[0].Send(packet.NodeID(n-1), 0)
	nw.Run(10)
	if count != 0 {
		t.Fatalf("packet crossed %d hops with TTL %d", n-1, packet.HopLimit)
	}
	if rrs[n-2].Count(RRTTLDrops) == 0 {
		t.Fatalf("node %d hops out never dropped the exhausted discovery", n-2)
	}
	if rrs[n-1].Count(RRRepliesSent) != 0 {
		t.Fatal("the target beyond the hop limit answered a discovery")
	}
}

func TestRRQueuedDataFlushedByReply(t *testing.T) {
	// Several packets sent while discovery is still in flight must all
	// be queued and delivered once the path reply lands — with their
	// original creation times (delay accounting includes the wait).
	nw, rrs := buildRR(t, RoutelessConfig{}, 14, line(3, 200))
	var delays []sim.Time
	nw.Nodes[2].OnAppReceive = func(p *packet.Packet) {
		delays = append(delays, nw.Kernel.Now()-p.CreatedAt)
	}
	for i := 0; i < 3; i++ {
		rrs[0].Send(2, 64) // all before any reply can arrive
	}
	nw.Run(10)
	if len(delays) != 3 {
		t.Fatalf("delivered %d, want 3", len(delays))
	}
	if rrs[0].Count(RRDiscoveriesSent) != 1 {
		t.Fatalf("discoveries = %d, want 1 (others queued)", rrs[0].Count(RRDiscoveriesSent))
	}
	for _, d := range delays {
		if d <= 0 {
			t.Fatalf("non-positive end-to-end delay %v", d)
		}
	}
}

func TestRRConcurrentFlowsShareGradients(t *testing.T) {
	// Two sources sending to the same destination: the second flow
	// should find the gradient already in place (passive learning) and
	// skip its own discovery.
	nw, rrs := buildRR(t, RoutelessConfig{}, 15, line(4, 200))
	count := 0
	nw.Nodes[3].OnAppReceive = func(*packet.Packet) { count++ }
	rrs[0].Send(3, 64)
	nw.Run(5)
	// Node 1 overheard the whole exchange: it knows the distance to 3.
	rrs[1].Send(3, 64)
	nw.Run(10)
	if count != 2 {
		t.Fatalf("delivered %d, want 2", count)
	}
	if rrs[1].Count(RRDiscoveriesSent) != 0 {
		t.Fatal("second source re-discovered despite passive gradient")
	}
}

// TestRRRedundantAcksDoubleEveryAck: with RedundantAcks every
// acknowledgement a node decides to send reaches its MAC queue twice;
// by default once. The ACK frames are what a node enqueued beyond its
// counted discoveries, replies, data, relays and retransmissions.
func TestRRRedundantAcksDoubleEveryAck(t *testing.T) {
	for _, tc := range []struct {
		cfg    RoutelessConfig
		copies uint64
	}{{RoutelessConfig{}, 1}, {RoutelessConfig{RedundantAcks: true}, 2}} {
		nw, rrs := buildRR(t, tc.cfg, 16, line(4, 200))
		for i := 0; i < 3; i++ {
			nw.Kernel.At(sim.Time(1+i), func() { rrs[0].Send(3, 64) })
		}
		nw.Run(10)
		var acks uint64
		for i, r := range rrs {
			other := r.Count(RRDiscoveriesSent) + r.Count(RRDiscoveryForwards) + r.Count(RRRepliesSent) +
				r.Count(RRDataSent) + r.Count(RRRelays) + r.Count(RRRetransmissions)
			decided := r.Count(RRArbiterAcks) + r.Count(RRTargetAcks)
			if frames := nw.Nodes[i].MAC.Count(mac.Enqueued) - other; frames != tc.copies*decided {
				t.Errorf("RedundantAcks=%v: node %d enqueued %d ACK frames for %d acknowledgements, want %d each",
					tc.cfg.RedundantAcks, i, frames, decided, tc.copies)
			}
			acks += decided
		}
		if acks == 0 {
			t.Fatalf("RedundantAcks=%v: no acknowledgements sent", tc.cfg.RedundantAcks)
		}
	}
}

// TestRRPlainDiscoveryNeverCancels: on a dense field the default
// counter-1 discovery cancels rebroadcasts that overhear a duplicate;
// PlainDiscovery turns that suppression off.
func TestRRPlainDiscoveryNeverCancels(t *testing.T) {
	cancelled := func(cfg RoutelessConfig) uint64 {
		nw := node.Must(node.New(node.Config{N: 80, Rect: geo.NewRect(900, 900), Seed: 17, EnsureConnected: true}))
		rrs := make([]*Routeless, 0, 80)
		nw.Install(func(*node.Node) node.Protocol {
			r := NewRouteless(cfg)
			rrs = append(rrs, r)
			return r
		})
		rrs[0].Send(79, 64)
		nw.Run(5)
		var sum uint64
		for _, r := range rrs {
			sum += r.Count(RRDiscoveryCancelled)
		}
		return sum
	}
	if got := cancelled(RoutelessConfig{}); got == 0 {
		t.Fatal("default discovery cancelled no rebroadcast on a dense field")
	}
	if got := cancelled(RoutelessConfig{PlainDiscovery: true}); got != 0 {
		t.Fatalf("PlainDiscovery cancelled %d rebroadcasts, want 0", got)
	}
}

// TestRRHopSlackAdmitsLongerDetours: a fresh copy that has traveled two
// hops more than the receiver's table distance to its origin is refused
// by the default detour check, and relayed at HopSlack 2.
func TestRRHopSlackAdmitsLongerDetours(t *testing.T) {
	for _, tc := range []struct {
		cfg     RoutelessConfig
		relayed bool
	}{{RoutelessConfig{}, false}, {RoutelessConfig{HopSlack: 2}, true}} {
		nw, rrs := buildRR(t, tc.cfg, 18, line(4, 200))
		rrs[0].Send(3, 64) // node 1 learns both gradients: 1 hop to 0, 2 to 3
		nw.Run(5)
		r := rrs[1]
		if r.Table().Hops(0) != 1 || r.Table().Hops(3) != 2 {
			t.Fatalf("node 1 gradients = (%d, %d), want (1, 2)", r.Table().Hops(0), r.Table().Hops(3))
		}
		relays, stale := r.Count(RRRelays), r.Count(RRStaleDrops)
		detour := packet.Packet{Kind: packet.KindData, From: 0, To: packet.Broadcast,
			Origin: 0, Target: 3, Seq: 1000, HopCount: 1 + 2, ExpectedHops: 2, TTL: 8, Size: 64}
		r.OnDeliver(&detour, -50)
		nw.Run(6)
		gotRelay, gotStale := r.Count(RRRelays)-relays, r.Count(RRStaleDrops)-stale
		if tc.relayed && (gotRelay != 1 || gotStale != 0) {
			t.Errorf("HopSlack 2: relays +%d, stale drops +%d; want the detour relayed", gotRelay, gotStale)
		}
		if !tc.relayed && (gotRelay != 0 || gotStale != 1) {
			t.Errorf("default HopSlack: relays +%d, stale drops +%d; want the detour counted stale", gotRelay, gotStale)
		}
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
		{"rr.", routelessTable, int(numRoutelessSeries)},
		{"aodv.", aodvTable, int(numAODVSeries)},
		{"gradient.", gradientTable, int(numGradientSeries)},
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
