package routing

import (
	"testing"
	"unsafe"

	"routeless/internal/core"
	"routeless/internal/mac"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// relayView is what a relay state carries besides its timer: the
// fields the digest reads, plus the drawn backoff.
type relayView struct {
	key         packet.FlowKey
	phase       core.Phase
	backoff     sim.Time
	armedHop    int
	armedFrom   packet.NodeID
	txHop       int
	fwd         packet.Packet
	retries     int
	created     sim.Time
	repairStart sim.Time
}

func viewRelay(st *relayState) relayView {
	return relayView{
		key: st.key, phase: st.Phase, backoff: st.Backoff,
		armedHop: st.armedHop, armedFrom: st.armedFrom,
		txHop: st.txHop, fwd: st.fwd, retries: st.retries,
		created: st.created, repairStart: st.repairStart,
	}
}

// dataCopy is a data packet from node 0 toward a target node 1 knows at
// one hop, as node 1 overhears it.
func dataCopy(seq uint32) *packet.Packet {
	return &packet.Packet{
		Kind: packet.KindData, To: packet.Broadcast, From: 0,
		Origin: 0, Target: 9, Seq: seq, HopCount: 1, ExpectedHops: 1,
		TTL: 4, Size: packet.SizeData,
	}
}

// targetCopy is a data packet from node 0 for node 1 itself, which node
// 1 consumes and acknowledges.
func targetCopy(seq uint32) *packet.Packet {
	p := dataCopy(seq)
	p.Target = 1
	return p
}

// newestAck returns r's newest ACK copy: the tail of order.
func newestAck(t *testing.T, r *Routeless) *relayState {
	t.Helper()
	if n := len(r.order); n > 0 && r.order[n-1].key.Kind == packet.KindAck {
		return r.order[n-1]
	}
	t.Fatal("no ACK copy at the tail of order")
	return nil
}

// discCopy is a discovery from node 5 for node 9 that node 1 overhears
// from node 0, hops hops out.
func discCopy(seq uint32, hops int) *packet.Packet {
	return &packet.Packet{
		Kind: packet.KindDiscovery, To: packet.Broadcast, From: 0,
		Origin: 5, Target: 9, Seq: seq, HopCount: hops, TTL: 10,
		Size: packet.SizeControl,
	}
}

// TestRecycledStateStartsClean runs two identical two-node networks
// with the periodic sweep stopped. In both, node 1 arms a first state:
// a relay for a target nobody answers for, which retransmits until it
// gives up and is as dirty as a state gets, or a discovery forward,
// which goes on the air. Ten seconds later only network A collects it,
// and both arm a second state, of either kind: A's comes off the free
// list, B's is fresh. gc draws no randomness, so every field must
// agree, whichever kind the object served before.
func TestRecycledStateStartsClean(t *testing.T) {
	disc := func(seq uint32) *packet.Packet { return discCopy(seq, 2) }
	for _, tc := range []struct {
		name          string
		first, second func(seq uint32) *packet.Packet
	}{
		{"relay-to-relay", dataCopy, dataCopy},
		{"discovery-to-relay", disc, dataCopy},
		{"relay-to-discovery", dataCopy, disc},
		{"discovery-to-discovery", disc, disc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type run struct {
				next  *relayState
				armed relayView
			}
			var runs [2]run
			for i := range runs {
				nw, rrs := buildRR(t, RoutelessConfig{}, 21, line(2, 200))
				r := rrs[1]
				r.sweep.Stop()
				r.table.Observe(9, 1, 1, 0)
				r.OnDeliver(tc.first(7), -50)
				first := r.relays[tc.first(7).Key()]
				nw.Run(stateTTL + 0.5)
				dirty := !r.n.MAC.Holds(&first.fwd) && first.fwd.UID != 0
				if first.key.Kind == packet.KindDiscovery {
					dirty = dirty && first.Phase == core.Queued && first.fwd.HopCount == 3
				} else {
					dirty = dirty && first.Phase == core.Done && first.retries > maxRelayRetries &&
						first.repairStart != 0 && first.txHop == 2
				}
				if !dirty {
					t.Fatalf("run %d: first state is not dirty: %+v", i, viewRelay(first))
				}
				if i == 0 {
					r.gc()
					if len(r.relays) != 0 || len(r.free) != 1 {
						t.Fatalf("gc left %d states and %d free ones, want 0 and 1", len(r.relays), len(r.free))
					}
				}
				r.OnDeliver(tc.second(8), -50)
				next := r.relays[tc.second(8).Key()]
				if (next == first) != (i == 0) {
					t.Fatalf("run %d: second state reused the first: %v", i, next == first)
				}
				runs[i] = run{next: next, armed: viewRelay(next)}
				nw.Run(stateTTL + 1) // the second state wins and transmits
			}
			if got, want := runs[0].armed, runs[1].armed; got != want {
				t.Fatalf("recycled state differs from a fresh one when armed:\n got  %+v\n want %+v", got, want)
			}
			got, want := viewRelay(runs[0].next), viewRelay(runs[1].next)
			if got != want || got.phase == core.Pending || got.fwd.UID == 0 {
				t.Fatalf("after transmitting, recycled state differs from a fresh one:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// frameRecorder is a protocol that only keeps what it overhears.
type frameRecorder struct{ got []packet.Packet }

func (f *frameRecorder) Start(*node.Node)                      {}
func (f *frameRecorder) OnDeliver(p *packet.Packet, _ float64) { f.got = append(f.got, *p) }
func (f *frameRecorder) OnSent(*packet.Packet)                 {}
func (f *frameRecorder) OnUnicastFailed(*packet.Packet)        {}
func (f *frameRecorder) Send(packet.NodeID, int)               {}

// TestPausedMACFrameNotRecycled queues an ACK copy and a discovery
// forward at a failed node: its paused MAC keeps both frames past
// stateTTL, after gc has dropped their states. Forwards armed afterwards
// must not reuse that memory, or the frames the node sends on recovery
// are theirs.
func TestPausedMACFrameNotRecycled(t *testing.T) {
	nw := node.Must(node.New(node.Config{Positions: line(2, 200), Seed: 22}))
	rec := &frameRecorder{}
	r := NewRouteless(RoutelessConfig{})
	nw.Install(func(n *node.Node) node.Protocol {
		if n.ID == 0 {
			return rec
		}
		return r
	})
	r.OnDeliver(targetCopy(50), -50) // node 1 is the target: it acknowledges
	ack := newestAck(t, r)
	for ack.Phase != core.Queued && nw.Kernel.Step() {
	}
	nw.Nodes[1].Fail()
	if !nw.Nodes[1].MAC.Holds(&ack.fwd) {
		t.Fatal("the ACK is not queued at the failed node")
	}
	r.OnDeliver(discCopy(1, 2), -50)
	nw.Run(1)
	if st := r.relays[discCopy(1, 2).Key()]; st == nil || st.Phase != core.Queued {
		t.Fatal("the first forward is not queued at the failed node")
	}
	nw.Run(stateTTL + 6) // past stateTTL and at least one sweep
	if len(r.relays) != 0 || len(r.order) != 0 {
		t.Fatalf("%d discovery forwards and %d states survived stateTTL", len(r.relays), len(r.order))
	}
	r.OnDeliver(discCopy(2, 4), -50)
	r.OnDeliver(discCopy(3, 4), -50)
	nw.Run(stateTTL + 7)
	nw.Nodes[1].Recover()
	nw.Run(stateTTL + 8)

	want := map[uint32]packet.Packet{1: *discCopy(1, 3), 2: *discCopy(2, 5), 3: *discCopy(3, 5)}
	for seq, p := range want {
		p.From, p.TTL = 1, p.TTL-1
		want[seq] = p
	}
	want[50] = packet.Packet{
		Kind: packet.KindAck, To: packet.Broadcast, From: 1,
		Origin: 0, Seq: 50, Payload: packet.KindData, Size: packet.SizeAck,
	}
	if len(rec.got) != len(want) {
		t.Fatalf("node 0 heard %d frames, want %d: %+v", len(rec.got), len(want), rec.got)
	}
	for _, p := range rec.got {
		w, ok := want[p.Seq]
		if !ok {
			t.Fatalf("node 0 heard seq %d twice or unexpectedly: %+v", p.Seq, rec.got)
		}
		delete(want, p.Seq)
		p.UID = 0
		if p != w {
			t.Fatalf("the frame sent for seq %d was rewritten:\n got  %+v\n want %+v", p.Seq, p, w)
		}
	}
}

// TestRefusedFrameEndsDone fills node 1's MAC queue at one phase of
// its state. Filled while the MAC is paused, before the frame is due,
// the queue refuses a relay that won its election, a discovery forward
// and an arbiter retransmission: a refused frame was never the MAC's,
// so the state ends Done with no arbiter duty, and nothing is
// retransmitted afterwards. Filled behind a relay frame already under
// contention, then failed and recovered, the paused MAC keeps the frame
// past QueueCap: it airs on recovery, OnSent moves the state OnAir, and
// nothing is dropped.
func TestRefusedFrameEndsDone(t *testing.T) {
	// KindFlood: a kind Routeless ignores when the fillers air.
	filler := &packet.Packet{Kind: packet.KindFlood, To: packet.Broadcast, Size: packet.SizeData}
	fill := func(m *mac.MAC) {
		for range mac.DefaultConfig().QueueCap {
			if !m.Enqueue(filler.Clone(), 0) {
				t.Fatal("queue full early")
			}
		}
	}
	for _, tc := range []struct {
		name        string
		copy        *packet.Packet
		fillAt      core.Phase // fill the queue once the state reaches it
		want        core.Phase
		refused     uint64
		retransmits uint64
	}{
		{"relay", dataCopy(1), core.Pending, core.Done, 1, 0},
		{"discovery", discCopy(1, 2), core.Pending, core.Done, 1, 0},
		{"retransmission", dataCopy(1), core.OnAir, core.Done, 1, 1},
		{"paused contender", dataCopy(1), core.Queued, core.OnAir, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, rrs := buildRR(t, RoutelessConfig{}, 24, line(2, 200))
			r, m := rrs[1], nw.Nodes[1].MAC
			r.table.Observe(9, 1, 1, 0)
			r.OnDeliver(tc.copy, -50)
			st := r.relays[tc.copy.Key()]
			if st == nil {
				t.Fatal("no state armed")
			}
			nw.Kernel.SetHorizon(1)
			for st.Phase != tc.fillAt && nw.Kernel.Step() {
			}
			if tc.fillAt == core.Queued {
				fill(m)
				nw.Nodes[1].Fail()
				nw.Nodes[1].Recover()
				for m.Holds(&st.fwd) && nw.Kernel.Step() {
				}
			} else {
				m.Pause()
				fill(m)
				nw.Run(1)
			}
			if st.Phase != tc.want || m.Holds(&st.fwd) || m.Count(mac.DroppedFull) != tc.refused || m.Count(mac.DroppedPaused) != 0 {
				t.Fatalf("phase %d, MAC holds %v, %d refused, %d dropped at pause; want phase %d, false, %d and 0",
					st.Phase, m.Holds(&st.fwd), m.Count(mac.DroppedFull), m.Count(mac.DroppedPaused), tc.want, tc.refused)
			}
			if got := r.Count(RRRetransmissions); got != tc.retransmits || r.Count(RRRelayGiveUps) != 0 {
				t.Fatalf("%d retransmissions, %d give-ups; want %d and 0", got, r.Count(RRRelayGiveUps), tc.retransmits)
			}
			if err := nw.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// An ACK copy is released wherever its frame does not reach the MAC:
	// refused by the queue filled while paused, or never queued because
	// the node is down when its jitter expires.
	for _, tc := range []struct {
		name    string
		stop    func(*node.Node) // before the jitter expires
		refused uint64
	}{
		{"ack refused", func(n *node.Node) { n.MAC.Pause(); fill(n.MAC) }, 1},
		{"ack at a down node", (*node.Node).Fail, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, rrs := buildRR(t, RoutelessConfig{}, 24, line(2, 200))
			r, m := rrs[1], nw.Nodes[1].MAC
			r.OnDeliver(targetCopy(1), -50)
			ack := newestAck(t, r)
			tc.stop(nw.Nodes[1])
			nw.Run(1)
			if r.Count(RRTargetAcks) != 1 || m.Holds(&ack.fwd) || m.Count(mac.DroppedFull) != tc.refused {
				t.Fatalf("%d ACKs, MAC holds the ACK %v, %d refused; want 1, false, %d",
					r.Count(RRTargetAcks), m.Holds(&ack.fwd), m.Count(mac.DroppedFull), tc.refused)
			}
			if len(r.order) != 0 || len(r.free) != 1 || r.free[0] != ack {
				t.Fatalf("%d states live and %d free; want the ACK copy released to the free list", len(r.order), len(r.free))
			}
			if err := nw.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestElectionCyclesAllocateNothing pins the pooled per-packet state:
// on a warmed node, a relay bid armed and cancelled by an overheard
// downstream copy (then collected), a discovery forward armed and
// cancelled by a duplicate, and, at a target out of everyone's range,
// a data packet consumed and its ACK sent and released at OnSent,
// allocate nothing.
func TestElectionCyclesAllocateNothing(t *testing.T) {
	nw, rrs := buildRR(t, RoutelessConfig{}, 23, line(2, 200))
	r := rrs[1]
	r.table.Observe(9, 1, 1, 0)
	lone, lones := buildRR(t, RoutelessConfig{}, 23, line(2, 1000))
	target := lones[1]
	pkt := &packet.Packet{}
	seq := uint32(0)
	relay := func() {
		seq++
		*pkt = *dataCopy(seq)
		r.OnDeliver(pkt, -50) // arms
		pkt.HopCount, pkt.From = 2, 5
		r.OnDeliver(pkt, -50) // a relay one ring on: lost the election
		nw.Run(nw.Kernel.Now() + 2.5)
		r.gc()
	}
	discovery := func() {
		seq++
		*pkt = packet.Packet{
			Kind: packet.KindDiscovery, To: packet.Broadcast, From: 0,
			Origin: 0, Target: 9, Seq: seq, HopCount: 1, TTL: 10,
			Size: packet.SizeControl,
		}
		r.OnDeliver(pkt, -50) // arms
		r.OnDeliver(pkt, -50) // the duplicate cancels
	}
	ack := func() {
		seq++
		*pkt = *targetCopy(seq)
		target.OnDeliver(pkt, -50) // consumed and acknowledged
		lone.Run(lone.Kernel.Now() + 0.1)
	}
	for _, tc := range []struct {
		name    string
		r       *Routeless
		cycle   func()
		warm    int
		counter RoutelessSeries
	}{
		{"relay", r, relay, 10, RRCancelledByOverhear},
		// Past the flood dedup cache's capacity, so it evicts as it records.
		{"discovery", r, discovery, 9000, RRDiscoveryCancelled},
		// Past the consumed cache's capacity, likewise.
		{"target ack", target, ack, 5000, RRTargetAcks},
	} {
		for range tc.warm {
			tc.cycle()
		}
		const runs = 100
		before := tc.r.Count(tc.counter)
		if allocs := testing.AllocsPerRun(runs, tc.cycle); allocs != 0 {
			t.Errorf("%s cycle: %v allocations per cycle, want 0", tc.name, allocs)
		}
		if got := tc.r.Count(tc.counter) - before; got != runs+1 { // AllocsPerRun warms up once
			t.Errorf("%s cycle: counter moved %d in %d cycles", tc.name, got, runs+1)
		}
		if len(tc.r.order) != 0 {
			t.Errorf("%s cycle: %d states left live, want every one released", tc.name, len(tc.r.order))
		}
	}
}

// TestProtocolSizes pins the per-node protocol structs, the arena
// weight every node of a run pays beside mac:TestMACSize's MAC, and
// Routeless's per-packet relayState, which every live election pays.
// Tables and dedup caches are held by value, so their headers count
// here; a field added to a protocol shows up in review as a changed pin.
func TestProtocolSizes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"Routeless", unsafe.Sizeof(Routeless{}), 352},
		{"relayState", unsafe.Sizeof(relayState{}), 208},
		{"Gradient", unsafe.Sizeof(Gradient{}), 240},
		{"AODV", unsafe.Sizeof(AODV{}), 224},
	} {
		if tc.got != tc.want {
			t.Errorf("%s is %d B, want %d", tc.name, tc.got, tc.want)
		}
	}
}
