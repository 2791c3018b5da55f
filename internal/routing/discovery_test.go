package routing

import (
	"testing"

	"routeless/internal/packet"
)

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
