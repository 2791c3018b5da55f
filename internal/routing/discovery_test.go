package routing

import (
	"testing"

	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/packet"
)

// TestDiscoveryFloodRelaysOnce is the flood-termination property of the
// one discovery flood, under every protocol that runs it. On a static
// connected field one source floods once (the run ends before its retry
// timer): the target answers, and every other node hands the MAC at most
// one rebroadcast. Without counter-1 suppression no rebroadcast is
// cancelled, so every node that heard the flood rebroadcasts it exactly
// once; with it, an armed rebroadcast ends on the MAC or cancelled by a
// duplicate. A node that never heard the flood sends none.
func TestDiscoveryFloodRelaysOnce(t *testing.T) {
	const n, src, dst = 60, 0, 59
	rr := func(s RoutelessSeries) func(node.Protocol) uint64 {
		return func(p node.Protocol) uint64 { return p.(*Routeless).Count(s) }
	}
	aodv := func(s AODVSeries) func(node.Protocol) uint64 {
		return func(p node.Protocol) uint64 { return p.(*AODV).Count(s) }
	}
	grad := func(s GradientSeries) func(node.Protocol) uint64 {
		return func(p node.Protocol) uint64 { return p.(*Gradient).Count(s) }
	}
	none := func(node.Protocol) uint64 { return 0 }
	for _, tc := range []struct {
		name                         string
		install                      func() node.Protocol
		kind                         packet.Kind
		forwards, answers, cancelled func(node.Protocol) uint64
		counter1                     bool
	}{
		{"routeless", func() node.Protocol { return NewRouteless(RoutelessConfig{}) }, packet.KindDiscovery,
			rr(RRDiscoveryForwards), rr(RRRepliesSent), rr(RRDiscoveryCancelled), true},
		{"routeless-plain", func() node.Protocol { return NewRouteless(RoutelessConfig{PlainDiscovery: true}) }, packet.KindDiscovery,
			rr(RRDiscoveryForwards), rr(RRRepliesSent), rr(RRDiscoveryCancelled), false},
		{"aodv", func() node.Protocol { return NewAODV() }, packet.KindRREQ,
			aodv(AODVRREQForwarded), aodv(AODVRREPSent), none, false},
		{"gradient", func() node.Protocol { return NewGradient() }, packet.KindDiscovery,
			grad(GradDiscoveryForwards), grad(GradRepliesSent), none, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := node.Must(node.New(node.Config{N: n, Rect: geo.NewRect(800, 800), Seed: 31, EnsureConnected: true}))
			protos := make([]node.Protocol, 0, n)
			nw.Install(func(*node.Node) node.Protocol {
				p := tc.install()
				protos = append(protos, p)
				return p
			})
			protos[src].Send(dst, 0)
			nw.Run(discoveryTimeout - 0.5)
			if got := tc.answers(protos[dst]); got != 1 {
				t.Fatalf("the target answered %d times, want 1", got)
			}
			key := packet.FlowKey{Origin: src, Kind: tc.kind, Seq: 1}
			heard := 0
			for i, p := range protos {
				f, _ := p.(discoverer).flood()
				fwd, cancelled := tc.forwards(p), tc.cancelled(p)
				relay := i != src && i != dst && f.seen.Contains(key)
				switch {
				case fwd > 1:
					t.Errorf("node %d handed the MAC %d rebroadcasts of one flood", i, fwd)
				case !relay && fwd+cancelled != 0:
					t.Errorf("node %d is no relay of the flood but rebroadcast %d, cancelled %d", i, fwd, cancelled)
				case relay && tc.counter1 && fwd+cancelled == 0:
					t.Errorf("node %d heard the flood but neither rebroadcast nor cancelled it", i)
				case relay && !tc.counter1 && (fwd != 1 || cancelled != 0):
					t.Errorf("node %d heard the flood: rebroadcast %d, cancelled %d; want 1 and 0", i, fwd, cancelled)
				}
				if relay {
					heard++
				}
			}
			if heard < n/2 {
				t.Errorf("only %d of %d nodes relay the flood", heard, n-2)
			}
		})
	}
}

// Regression tests for the discovery give-up audit: a route or gradient
// learned passively while a discovery is pending must flush the queued
// data when the timeout fires — not re-flood next to a usable route,
// and never count the data as dropped. In each scenario the target is
// unreachable (radio off) during the source's discovery flood, then
// powers up and originates its own traffic toward the source, which
// teaches the source the way back before the timeout.

func TestRRTimeoutFlushesPassivelyLearnedGradient(t *testing.T) {
	nw, rrs := buildRR(t, RoutelessConfig{}, 5, line(3, 200))
	got := 0
	nw.Nodes[2].OnAppReceive = func(*packet.Packet) { got++ }
	nw.Nodes[2].Radio.TurnOff()
	rrs[0].Send(2, 0) // queues data behind a discovery nobody can answer
	nw.Kernel.Schedule(0.3, func() {
		nw.Nodes[2].Radio.TurnOn()
		rrs[2].Send(0, 0) // the target's own discovery flood teaches 0 the gradient
	})
	nw.Run(6)
	if got != 1 {
		t.Fatalf("queued data delivered %d times, want 1", got)
	}
	if rrs[0].Count(RRDiscoveriesSent) != 1 {
		t.Fatalf("DiscoveriesSent = %d, want 1 (timeout re-flooded next to a known gradient)", rrs[0].Count(RRDiscoveriesSent))
	}
	if rrs[0].Count(RRDroppedNoRoute) != 0 {
		t.Fatalf("DroppedNoRoute = %d, want 0", rrs[0].Count(RRDroppedNoRoute))
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAODVTimeoutFlushesPassivelyLearnedRoute(t *testing.T) {
	nw, as := buildAODV(t, 7, line(2, 150))
	got := 0
	nw.Nodes[1].OnAppReceive = func(*packet.Packet) { got++ }
	nw.Nodes[1].Radio.TurnOff()
	as[0].Send(1, 0)
	nw.Kernel.Schedule(0.3, func() {
		nw.Nodes[1].Radio.TurnOn()
		as[1].Send(0, 0) // its RREQ installs a reverse route to 1 at node 0
	})
	nw.Run(6)
	if got != 1 {
		t.Fatalf("queued data delivered %d times, want 1", got)
	}
	if as[0].Count(AODVRediscoveries) != 0 {
		t.Fatalf("Rediscoveries = %d, want 0 (timeout re-flooded next to a valid route)", as[0].Count(AODVRediscoveries))
	}
	if as[0].Count(AODVDroppedNoRoute) != 0 {
		t.Fatalf("DroppedNoRoute = %d, want 0", as[0].Count(AODVDroppedNoRoute))
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGradientTimeoutFlushesPassivelyLearnedGradient(t *testing.T) {
	nw, gs := buildGrad(t, 9, line(3, 200))
	got := 0
	nw.Nodes[2].OnAppReceive = func(*packet.Packet) { got++ }
	nw.Nodes[2].Radio.TurnOff()
	gs[0].Send(2, 0)
	nw.Kernel.Schedule(0.3, func() {
		nw.Nodes[2].Radio.TurnOn()
		gs[2].Send(0, 0)
	})
	nw.Run(6)
	if got != 1 {
		t.Fatalf("queued data delivered %d times, want 1", got)
	}
	if gs[0].Count(GradDiscoveriesSent) != 1 {
		t.Fatalf("DiscoveriesSent = %d, want 1 (timeout re-flooded next to a known gradient)", gs[0].Count(GradDiscoveriesSent))
	}
	if gs[0].Count(GradDroppedNoRoute) != 0 {
		t.Fatalf("DroppedNoRoute = %d, want 0", gs[0].Count(GradDroppedNoRoute))
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
