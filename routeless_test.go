package routeless_test

import (
	"testing"

	"routeless"
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
	k := routeless.NewKernel(1)
	cl := routeless.NewCluster(k, 6, 1e-4, 1e-6, 0, k.Rand())
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
		cfg := cfg
		nw := routeless.Must(routeless.NewNetwork(routeless.NetworkConfig{
			N: 40, Rect: routeless.NewRect(700, 700), Seed: 9, EnsureConnected: true,
		}))
		nw.Install(func(n *routeless.Node) routeless.Protocol {
			return routeless.NewFlooding(&cfg)
		})
		got := false
		nw.Nodes[20].OnAppReceive = func(*routeless.Packet) { got = true }
		nw.Nodes[0].Net.Send(20, 64)
		nw.Run(3)
		if !got {
			t.Fatalf("flood (%v) did not deliver", cfg.Policy.Name())
		}
	}
}

// TestAODVAPI routes through the baseline protocol via the façade.
func TestAODVAPI(t *testing.T) {
	nw := routeless.Must(routeless.NewNetwork(routeless.NetworkConfig{
		N: 60, Rect: routeless.NewRect(900, 900), Seed: 4, EnsureConnected: true,
	}))
	nw.Install(func(n *routeless.Node) routeless.Protocol {
		return routeless.NewAODV(routeless.AODVConfig{})
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
	nw := routeless.Must(routeless.NewNetwork(routeless.NetworkConfig{
		N: 120, Rect: routeless.NewRect(1000, 1000), Seed: 5, EnsureConnected: true,
	}))
	nw.Install(func(n *routeless.Node) routeless.Protocol {
		return routeless.NewRouteless(routeless.RoutelessConfig{})
	})
	src, dst := 0, 100
	var meter routeless.Meter
	nw.Nodes[dst].OnAppReceive = func(p *routeless.Packet) {
		meter.PacketReceived(float64(nw.Kernel.Now()-p.CreatedAt), p.HopCount)
	}
	cbr := routeless.NewCBR(nw.Nodes[src], routeless.NodeID(dst), 0.5, 64)
	cbr.OnSend = meter.PacketSent
	cbr.Start()
	for i, n := range nw.Nodes {
		if i == src || i == dst {
			continue
		}
		fp := routeless.NewFailureProcess(n, nw.Kernel.Rand())
		fp.OffFraction = 0.10
		fp.Start()
	}
	nw.Run(30)
	cbr.Stop()
	nw.Run(35)
	if meter.DeliveryRatio() < 0.85 {
		t.Fatalf("delivery %v under 10%% failures", meter.DeliveryRatio())
	}
}

// TestTrafficAndStatsAPI exercises RandomPairs, CBR, Meter and Table.
func TestTrafficAndStatsAPI(t *testing.T) {
	pairs := routeless.RandomPairs(routeless.NewKernel(3).Rand(), 50, 10)
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

// TestPropagationAPI checks the exported models.
func TestPropagationAPI(t *testing.T) {
	var m routeless.PropagationModel = routeless.NewFreeSpace()
	if m.ReceivedPower(20, 100) <= m.ReceivedPower(20, 200) {
		t.Fatal("free space not monotone through the façade")
	}
	tr := routeless.NewTwoRay()
	if tr.Crossover() <= 0 {
		t.Fatal("two-ray crossover")
	}
}

// TestInstallFaultsAPI installs the fault plane through the façade on
// a built network: the plan crashes nodes and the run still satisfies
// every conservation law.
func TestInstallFaultsAPI(t *testing.T) {
	nw := routeless.Must(routeless.NewNetwork(routeless.NetworkConfig{
		N: 40, Rect: routeless.NewRect(700, 700), Seed: 9, EnsureConnected: true,
	}))
	routeless.Must(routeless.InstallFaults(nw, routeless.FaultPlan{routeless.Crash(0.3)}))
	nw.Install(func(n *routeless.Node) routeless.Protocol {
		return routeless.NewRouteless(routeless.RoutelessConfig{})
	})
	nw.Nodes[0].Net.Send(20, 64)
	nw.Run(5)
	if nw.Metrics.Snapshot().Count("fault.crashes") == 0 {
		t.Fatal("InstallFaults never crashed a node")
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated under the fault plan: %v", err)
	}
}
