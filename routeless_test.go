package routeless_test

import (
	"testing"

	"routeless"
	"routeless/internal/rng"
)

// TestQuickstartFlow exercises the façade end to end the way the README
// shows: build a network, install Routeless Routing, deliver a packet.
func TestQuickstartFlow(t *testing.T) {
	nw := routeless.Must(routeless.NewNetwork(routeless.NetworkConfig{
		N: 100, Seed: 42, EnsureConnected: true,
	}))
	nw.Install(func(n *routeless.Node) routeless.Protocol {
		return routeless.NewRouteless(routeless.RoutelessConfig{})
	})
	var hops int
	nw.Nodes[7].OnAppReceive = func(p *routeless.Packet) { hops = p.HopCount }
	nw.Nodes[0].Net.Send(7, 256)
	nw.Run(10)
	if hops == 0 {
		t.Fatal("packet never delivered through the public API")
	}
}

// TestElectionAPI runs the §2 election through the façade.
func TestElectionAPI(t *testing.T) {
	k := routeless.NewKernel()
	cl := routeless.NewCluster(k, 6, 1e-4, 1e-6, 0, rng.New(1))
	cl.ConnectAll()
	es := make([]*routeless.Elector, 5)
	for i := range es {
		es[i] = routeless.NewElector(k, routeless.NodeID(i), cl, routeless.UniformPolicy{Max: 0.01})
		cl.AttachElector(es[i])
	}
	arb := routeless.NewArbiter(k, 5, cl, 0.1)
	cl.AttachArbiter(arb)
	arb.Trigger()
	k.Run()
	if arb.Leader() < 0 {
		t.Fatalf("no leader elected: %v", arb.Leader())
	}
}

// TestFloodingAPI floods through the façade with both §3 variants.
func TestFloodingAPI(t *testing.T) {
	for _, cfg := range []routeless.FloodConfig{
		routeless.Counter1Config(5e-3),
		routeless.SSAFConfig(5e-3, -55.1, -33.2),
	} {
		nw := routeless.Must(routeless.NewNetwork(routeless.NetworkConfig{
			N: 40, Rect: routeless.NewRect(700, 700), Seed: 9, EnsureConnected: true,
		}))
		routeless.InstallFlooding(nw, cfg)
		got := false
		nw.Nodes[20].OnAppReceive = func(*routeless.Packet) { got = true }
		nw.Nodes[0].Net.Send(20, 64)
		nw.Run(3)
		if !got {
			t.Fatalf("flood (%T) did not deliver", cfg.Policy)
		}
	}
}

// TestAODVAPI routes through the baseline protocol via the façade.
func TestAODVAPI(t *testing.T) {
	nw := routeless.Must(routeless.NewNetwork(routeless.NetworkConfig{
		N: 60, Rect: routeless.NewRect(900, 900), Seed: 4, EnsureConnected: true,
	}))
	nw.Install(func(n *routeless.Node) routeless.Protocol {
		return routeless.NewAODV()
	})
	got := false
	nw.Nodes[30].OnAppReceive = func(*routeless.Packet) { got = true }
	nw.Nodes[0].Net.Send(30, 128)
	nw.Run(10)
	if !got {
		t.Fatal("AODV did not deliver")
	}
}

// TestFailureProcessAPI injects §4.3 duty-cycle failures via the façade
// and checks Routeless keeps delivering.
func TestFailureProcessAPI(t *testing.T) {
	const src, dst = 0, 100
	sc := routeless.Scenario{
		Seed: 5, N: 120, Width: 1000, Height: 1000, Range: 250,
		Placement: "uniform", Connected: true, Protocol: "routeless",
		Flows:    []routeless.Flow{{Src: src, Dst: dst}},
		Interval: 0.5, DataSize: 64, Duration: 30,
		Faults: []routeless.FaultSpec{{Kind: "crash", OffFraction: 0.10, Exclude: []int{src, dst}}},
	}
	m, err := routeless.Must(routeless.Build(sc)).Finish()
	if err != nil {
		t.Fatal(err)
	}
	if m.Delivery < 0.85 {
		t.Fatalf("delivery %v under 10%% failures", m.Delivery)
	}
}

// TestTrafficAndStatsAPI exercises RandomPairs, Welford and Table.
func TestTrafficAndStatsAPI(t *testing.T) {
	pairs := routeless.RandomPairs(rng.New(3), 50, 10)
	if len(pairs) != 10 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	var w routeless.Welford
	w.Add(1)
	w.Add(3)
	if w.Mean() != 2 {
		t.Fatalf("welford mean %v", w.Mean())
	}
	tb := routeless.NewTable("x", "a")
	tb.AddRow(1.5)
	if tb.NumRows() != 1 {
		t.Fatal("table broken")
	}
}

// TestPropagationAPI checks the exported free-space model.
func TestPropagationAPI(t *testing.T) {
	m := routeless.NewFreeSpace()
	if m.ReceivedPower(20, 100) <= m.ReceivedPower(20, 200) {
		t.Fatal("free space not monotone through the façade")
	}
	if m.Wavelength() <= 0 {
		t.Fatal("free-space wavelength")
	}
}

// TestInstallFaultsAPI installs the fault plane through the façade: a
// document's crash fault crashes nodes and the run still satisfies
// every conservation law.
func TestInstallFaultsAPI(t *testing.T) {
	sc := routeless.Scenario{
		Seed: 9, N: 40, Width: 700, Height: 700, Range: 250,
		Placement: "uniform", Connected: true, Protocol: "routeless",
		Flows:    []routeless.Flow{{Src: 0, Dst: 20}},
		Interval: 1, DataSize: 64, Duration: 5,
		Faults: []routeless.FaultSpec{{Kind: "crash", OffFraction: 0.3}},
	}
	run := routeless.Must(routeless.Build(sc))
	if _, err := run.Finish(); err != nil {
		t.Fatalf("invariants violated under the fault plan: %v", err)
	}
	if run.Network().Metrics.Snapshot().Count("fault.crashes") == 0 {
		t.Fatal("the crash fault never crashed a node")
	}
}
