package fault_test

import (
	"encoding/json"
	"math"
	"testing"

	"routeless/internal/fault"
	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/phy"
	"routeless/internal/rng"
	"routeless/internal/routing"
	"routeless/internal/sim"
	"routeless/internal/traffic"
)

// scenario builds a small Routeless field with bidirectional CBR
// between two fixed endpoints, lets prep wire in faults (or not), runs,
// and returns the network for inspection.
func scenario(t *testing.T, seed int64, dur sim.Time, prep func(nw *node.Network)) *node.Network {
	return scenarioAt(t, seed, dur, 0.25, prep)
}

func scenarioAt(t *testing.T, seed int64, dur, interval sim.Time, prep func(nw *node.Network)) *node.Network {
	t.Helper()
	nw := node.Must(node.New(node.Config{
		N:               30,
		Rect:            geo.NewRect(600, 600),
		Seed:            seed,
		EnsureConnected: true,
	}))
	nw.Install(func(n *node.Node) node.Protocol {
		return routing.NewRouteless(routing.RoutelessConfig{})
	})
	a := traffic.NewCBR(nw.Nodes[0], packet.NodeID(len(nw.Nodes)-1), interval, 64)
	b := traffic.NewCBR(nw.Nodes[len(nw.Nodes)-1], 0, interval, 64)
	a.Start()
	b.Start()
	if prep != nil {
		prep(nw)
	}
	nw.Run(dur)
	a.Stop()
	b.Stop()
	nw.Run(dur + 2)
	return nw
}

// endpoints are the CBR source and sink scenario wires up; fault specs
// exclude them so traffic keeps flowing.
func endpoints(nw *node.Network) []packet.NodeID {
	return []packet.NodeID{0, packet.NodeID(len(nw.Nodes) - 1)}
}

func snapshotJSON(t *testing.T, nw *node.Network) []byte {
	t.Helper()
	b, err := json.Marshal(nw.Metrics.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// An empty plan must be inert: installing it changes neither the event
// stream nor the metric snapshot — byte for byte. This is the guarantee
// that lets the fault plane be wired into every experiment without
// disturbing golden figures.
func TestEmptyPlanInert(t *testing.T) {
	base := scenario(t, 7, 10, nil)
	wired := scenario(t, 7, 10, func(nw *node.Network) {
		node.Must(fault.Install(nw, nil))
		node.Must(fault.Install(nw, fault.Plan{}))
	})
	if g, w := base.Kernel.Processed(), wired.Kernel.Processed(); g != w {
		t.Fatalf("empty plan changed event count: %d vs %d", g, w)
	}
	if g, w := snapshotJSON(t, base), snapshotJSON(t, wired); string(g) != string(w) {
		t.Fatalf("empty plan changed snapshot:\nbase:  %s\nwired: %s", g, w)
	}
}

// Routing the legacy hand-wired FailureProcess loop through a one-crash
// plan must be bitwise identical in simulation behavior: spec 0 of the
// plan draws from the per-node (StreamFailure, 0, id) streams and
// installs in id order.
func TestCrashPlanMatchesLegacyHandWired(t *testing.T) {
	const p = 0.3
	legacy := scenario(t, 11, 10, func(nw *node.Network) {
		skip := map[packet.NodeID]bool{}
		for _, id := range endpoints(nw) {
			skip[id] = true
		}
		for _, n := range nw.Nodes {
			if skip[n.ID] {
				continue
			}
			fp := node.NewFailureProcess(n, rng.New(nw.Seed, rng.StreamFailure, 0, uint64(n.ID)))
			fp.OffFraction = p
			fp.Start()
		}
	})
	planned := scenario(t, 11, 10, func(nw *node.Network) {
		crash := fault.Crash(p)
		crash.Exclude = endpoints(nw)
		node.Must(fault.Install(nw, fault.Plan{crash}))
	})
	if g, w := legacy.Kernel.Processed(), planned.Kernel.Processed(); g != w {
		t.Fatalf("crash plan diverged from legacy loop: %d vs %d events", g, w)
	}
	now := legacy.Kernel.Now()
	for i := range legacy.Nodes {
		g := legacy.Nodes[i].Radio.Energy().Total(now)
		w := planned.Nodes[i].Radio.Energy().Total(planned.Kernel.Now())
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("node %d energy diverged: %v vs %v", i, g, w)
		}
	}
}

// Crash with Sleep routes downtime through the low-power sleep state —
// §4.2 voluntary duty cycling — and the recovery counters still roll up.
func TestCrashSleepDutyCycle(t *testing.T) {
	nw := scenario(t, 13, 12, func(nw *node.Network) {
		crash := fault.Crash(0.4)
		crash.Cycle = 2
		crash.Sleep = true
		crash.Exclude = endpoints(nw)
		node.Must(fault.Install(nw, fault.Plan{crash}))
	})
	snap := nw.Metrics.Snapshot()
	if snap.Count("fault.crashes") == 0 || snap.Count("fault.recoveries") == 0 {
		t.Fatalf("duty cycle never cycled: crashes=%d recoveries=%d",
			snap.Count("fault.crashes"), snap.Count("fault.recoveries"))
	}
	now := nw.Kernel.Now()
	var slept float64
	for _, n := range nw.Nodes {
		slept += n.Radio.Energy().InState(now, phy.StateSleep)
	}
	if slept <= 0 {
		t.Fatal("Sleep duty cycling accrued no sleep-state energy")
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated under sleep churn: %v", err)
	}
}

// Aggressive churn powers radios down mid-transmission; the phy layer's
// abort accounting (PR 3's txLive fix) must keep the conservation laws
// exact. This is the regression test for that interaction.
func TestMidTXPowerDownUnderChurn(t *testing.T) {
	nw := scenarioAt(t, 17, 15, 0.01 /* saturating traffic */, func(nw *node.Network) {
		crash := fault.Crash(0.5)
		crash.Cycle = 0.5 // flip fast enough to land inside frames
		crash.Exclude = endpoints(nw)
		node.Must(fault.Install(nw, fault.Plan{crash}))
	})
	if err := nw.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated under fast churn: %v", err)
	}
	snap := nw.Metrics.Snapshot()
	if snap.Count("phy.tx_aborted") == 0 {
		t.Fatal("fast churn never aborted a transmission mid-flight")
	}
	if snap.Count("fault.crashes") == 0 {
		t.Fatal("fast churn never crashed a node")
	}
}

// Drain kills nodes permanently once their energy budget is spent —
// even when a crash duty cycle tries to revive them.
func TestDrainKillsPermanently(t *testing.T) {
	victims := []packet.NodeID{3, 4, 5}
	nw := scenario(t, 19, 20, func(nw *node.Network) {
		drain := fault.Drain(0.2) // idle draw alone crosses this in ~6 s
		drain.Nodes = victims
		crash := fault.Crash(0.3)
		crash.Nodes = victims
		node.Must(fault.Install(nw, fault.Plan{drain, crash}))
	})
	snap := nw.Metrics.Snapshot()
	if got := snap.Count("fault.drained"); got != uint64(len(victims)) {
		t.Fatalf("drained %d nodes, want %d", got, len(victims))
	}
	for _, id := range victims {
		if nw.Nodes[id].Up() {
			t.Fatalf("node %d still up after battery depletion", id)
		}
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated under drain: %v", err)
	}
}

// Degrade shadows one link at a time and restores it; the channel
// offset plumbing must attenuate the mean received power by exactly the
// configured offset while installed.
func TestDegradeShadowsLinks(t *testing.T) {
	nw := scenario(t, 23, 10, func(nw *node.Network) {
		deg := fault.Degrade(-25)
		deg.Period = 0.25
		deg.Duration = 0.5
		node.Must(fault.Install(nw, fault.Plan{deg}))
	})
	snap := nw.Metrics.Snapshot()
	if snap.Count("fault.degrades") == 0 {
		t.Fatal("degrade spec never shadowed a link")
	}
	// Degrades fired within Duration of the end legitimately have their
	// restore still pending; everything earlier must have restored.
	deg, res := snap.Count("fault.degrades"), snap.Count("fault.restores")
	if res == 0 || res > deg || deg-res > 2 {
		t.Fatalf("restore accounting off: degrades=%d restores=%d", deg, res)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated under degradation: %v", err)
	}

	// Offset plumbing, directly: installing an offset moves the mean
	// power by that many dB and invalidates the link cache.
	ch := nw.Channel
	before := ch.MeanPowerAt(0, 1)
	ch.SetLinkOffset(0, 1, -25)
	if diff := ch.MeanPowerAt(0, 1) - before; math.Abs(diff+25) > 1e-9 {
		t.Fatalf("offset moved mean power by %v dB, want -25", diff)
	}
	if got := ch.LinkOffset(0, 1); math.Abs(got+25) > 1e-12 {
		t.Fatalf("LinkOffset = %v, want -25", got)
	}
	ch.SetLinkOffset(0, 1, 0)
	after := ch.MeanPowerAt(0, 1)
	if math.Float64bits(after) != math.Float64bits(before) {
		t.Fatalf("clearing the offset did not restore the exact power: %v vs %v", after, before)
	}
}

// Jam raises the noise floor with interference-only bursts: the bursts
// must land on receivers, perturb the simulation, and leave the phy
// conservation laws intact (jam signals never decode).
func TestJamInterferes(t *testing.T) {
	clean := scenario(t, 29, 10, nil)
	jammed := scenario(t, 29, 10, func(nw *node.Network) {
		node.Must(fault.Install(nw, fault.Plan{fault.Jam(24.5)}))
	})
	snap := jammed.Metrics.Snapshot()
	if snap.Count("fault.jam_bursts") == 0 || snap.Count("fault.jam_hits") == 0 {
		t.Fatalf("jammer idle: bursts=%d hits=%d",
			snap.Count("fault.jam_bursts"), snap.Count("fault.jam_hits"))
	}
	if clean.Kernel.Processed() == jammed.Kernel.Processed() {
		t.Fatal("jammer did not perturb the event stream")
	}
	if err := jammed.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated under jamming: %v", err)
	}
}

// The composite plan — everything at once — holds the downtime
// conservation bound the injector registers with the network.
func TestCompositePlanInvariants(t *testing.T) {
	nw := scenario(t, 31, 12, func(nw *node.Network) {
		crash := fault.Crash(0.2)
		crash.Exclude = endpoints(nw)
		deg := fault.Degrade(-25)
		deg.Period = 0.5
		node.Must(fault.Install(nw, fault.Plan{crash, deg, fault.Jam(24.5)}))
	})
	if err := nw.CheckInvariants(); err != nil {
		t.Fatalf("composite plan violated invariants: %v", err)
	}
	snap := nw.Metrics.Snapshot()
	for _, series := range []string{"fault.crashes", "fault.degrades", "fault.jam_bursts"} {
		if snap.Count(series) == 0 {
			t.Fatalf("composite plan: %s never fired", series)
		}
	}
}
