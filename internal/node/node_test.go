package node

import (
	"math"
	"slices"
	"testing"

	"routeless/internal/geo"
	"routeless/internal/metrics"
	"routeless/internal/packet"
	"routeless/internal/rng"
)

// echoProto is a trivial Protocol: broadcasts on Send, delivers frames
// addressed to (or broadcast at) its node.
type echoProto struct {
	n    *Node
	seq  uint32
	sent int
}

func (p *echoProto) Start(n *Node) { p.n = n }

func (p *echoProto) OnDeliver(pkt *packet.Packet, rssi float64) {
	if pkt.To == packet.Broadcast || pkt.To == p.n.ID {
		p.n.Deliver(pkt)
	}
}

func (p *echoProto) OnSent(pkt *packet.Packet)          { p.sent++ }
func (p *echoProto) OnUnicastFailed(pkt *packet.Packet) {}

func (p *echoProto) Send(target packet.NodeID, size int) {
	p.seq++
	p.n.MAC.Enqueue(&packet.Packet{
		Kind: packet.KindData, To: packet.Broadcast, Origin: p.n.ID,
		Target: target, Seq: p.seq, Size: size, CreatedAt: p.n.Kernel.Now(),
	}, 0)
}

func TestNetworkConstructionDefaults(t *testing.T) {
	nw := Must(New(Config{N: 20, Seed: 1}))
	if len(nw.Nodes) != 20 {
		t.Fatalf("nodes = %d", len(nw.Nodes))
	}
	for i, n := range nw.Nodes {
		if n.ID != packet.NodeID(i) {
			t.Fatalf("node %d has id %v", i, n.ID)
		}
		if n.MAC == nil || n.Radio == nil || n.Kernel != nw.Kernel {
			t.Fatal("node not fully wired")
		}
		if !nw.Rect.Contains(n.Pos) {
			t.Fatalf("node %d outside terrain", i)
		}
	}
}

func TestExplicitPositions(t *testing.T) {
	pos := []geo.Point{{X: 10, Y: 10}, {X: 100, Y: 10}}
	nw := Must(New(Config{Positions: pos, Seed: 2}))
	if len(nw.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(nw.Nodes))
	}
	if nw.Nodes[1].Pos != pos[1] {
		t.Fatal("positions not honored")
	}
}

func TestEnsureConnected(t *testing.T) {
	// Sparse enough that some draws are disconnected, dense enough that
	// a connected one exists within a few attempts.
	nw := Must(New(Config{N: 40, Rect: geo.NewRect(2000, 2000), Range: 500, Seed: 3, EnsureConnected: true}))
	if !nw.Channel.Connected() {
		t.Fatal("EnsureConnected produced a disconnected network")
	}
}

func TestInstallAndTraffic(t *testing.T) {
	nw := Must(New(Config{Positions: []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Seed: 4}))
	nw.Install(func(n *Node) Protocol { return &echoProto{} })
	var got []packet.Packet // a delivered packet is lent for the call: keep a copy
	nw.Nodes[1].OnAppReceive = func(p *packet.Packet) { got = append(got, *p) }
	nw.Nodes[0].Net.Send(1, packet.SizeData)
	nw.Run(1)
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	if nw.MACPackets() != 1 {
		t.Fatalf("MACPackets = %d, want 1", nw.MACPackets())
	}
	if got := nw.Metrics.Snapshot().Count("mac.tx_frames"); got != nw.MACPackets() {
		t.Fatalf("journal mac.tx_frames = %d, MACPackets = %d: not the same cells", got, nw.MACPackets())
	}
}

// TestProcessedIsTheKernelCount pins the one-engine contract: traffic,
// a mover and a failure process all run on the network's single kernel,
// so the run's event count is that kernel's and nothing else's.
func TestProcessedIsTheKernelCount(t *testing.T) {
	nw := Must(New(Config{N: 5, Rect: geo.NewRect(300, 300), Seed: 4}))
	nw.Install(func(n *Node) Protocol { return &echoProto{} })
	w := NewWaypoint(nw, nw.Nodes[1], rng.ForNode(4, rng.StreamTopology, 1))
	start := nw.Nodes[1].Pos
	w.Start()
	fp := NewFailureProcess(nw.Nodes[2], rng.ForNode(4, rng.StreamFailure, 2))
	fp.OffFraction, fp.Cycle = 0.5, 1
	fp.Start()
	nw.Nodes[0].Net.Send(3, packet.SizeData)
	before := nw.Processed()
	nw.Run(10)
	if nw.Nodes[1].Pos == start {
		t.Fatal("mover never ran")
	}
	if fp.Failures() == 0 {
		t.Fatal("failure process never fired")
	}
	if nw.Processed() == before {
		t.Fatal("Run executed no events")
	}
	if nw.Processed() != nw.Kernel.Processed() {
		t.Fatalf("Processed() = %d, Kernel.Processed() = %d", nw.Processed(), nw.Kernel.Processed())
	}
	for _, n := range nw.Nodes {
		if n.Kernel != nw.Kernel {
			t.Fatalf("node %d runs on a kernel other than the network's", n.ID)
		}
	}
}

// countingProto is an echoProto that counts its sends in a block of the
// given table, so one factory can hand out several protocol types.
type countingProto struct {
	echoProto
	table *metrics.Table
	cells [2]metrics.Counter32
}

func (p *countingProto) Send(target packet.NodeID, size int) {
	p.cells[1].Inc()
	p.echoProto.Send(target, size)
}

func (p *countingProto) MetricBlock() metrics.Block {
	return metrics.Block{Table: p.table, Counters: p.cells[:]}
}

// TestInstallGroupsMixedProtocolsByTable covers a factory that returns
// two counting protocol types and a sink that counts nothing: each
// table registers once, in the order its first node appears, after the
// network's own series; the sink is skipped.
func TestInstallGroupsMixedProtocolsByTable(t *testing.T) {
	beta := &metrics.Table{Counters: []string{"beta.idle", "beta.sends"}}
	alpha := &metrics.Table{Counters: []string{"alpha.idle", "alpha.sends"}}
	pos := []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 100, Y: 0}, {X: 150, Y: 0}, {X: 200, Y: 0}}
	nw := Must(New(Config{Positions: pos, Seed: 5}))
	base := len(nw.Metrics.Snapshot().Samples)
	nw.Install(func(n *Node) Protocol {
		switch n.ID {
		case 0:
			return &echoProto{}
		case 2:
			return &countingProto{table: alpha}
		}
		return &countingProto{table: beta}
	})
	for _, n := range nw.Nodes {
		n.Net.Send(packet.Broadcast, packet.SizeData)
	}
	nw.Run(1)
	snap := nw.Metrics.Snapshot()
	var names []string
	for _, smp := range snap.Samples[base:] {
		names = append(names, smp.Name)
	}
	want := []string{"beta.idle", "beta.sends", "alpha.idle", "alpha.sends"}
	if !slices.Equal(names, want) {
		t.Fatalf("installed series = %v, want %v", names, want)
	}
	if b, a := snap.Count("beta.sends"), snap.Count("alpha.sends"); b != 3 || a != 1 {
		t.Fatalf("beta.sends = %d, alpha.sends = %d, want 3 and 1", b, a)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := Must(New(Config{N: 30, Seed: 7}))
	b := Must(New(Config{N: 30, Seed: 7}))
	for i := range a.Nodes {
		if a.Nodes[i].Pos != b.Nodes[i].Pos {
			t.Fatal("same seed produced different placement")
		}
	}
	c := Must(New(Config{N: 30, Seed: 8}))
	same := 0
	for i := range a.Nodes {
		if a.Nodes[i].Pos == c.Nodes[i].Pos {
			same++
		}
	}
	if same == len(a.Nodes) {
		t.Fatal("different seeds produced identical placement")
	}
}

func TestFailRecover(t *testing.T) {
	nw := Must(New(Config{Positions: []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Seed: 5}))
	nw.Install(func(n *Node) Protocol { return &echoProto{} })
	n := nw.Nodes[1]
	if !n.Up() {
		t.Fatal("node should start up")
	}
	n.Fail()
	if n.Up() || !n.MAC.Paused() {
		t.Fatal("Fail did not take down radio+MAC")
	}
	n.Fail() // idempotent
	n.Recover()
	if !n.Up() || n.MAC.Paused() {
		t.Fatal("Recover did not restore radio+MAC")
	}
	n.Recover() // idempotent
}

func TestFailureProcessDutyCycle(t *testing.T) {
	nw := Must(New(Config{Positions: []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Seed: 6}))
	nw.Install(func(n *Node) Protocol { return &echoProto{} })
	fp := NewFailureProcess(nw.Nodes[0], rng.ForNode(6, rng.StreamFailure, 0))
	fp.OffFraction = 0.1
	fp.Cycle = 5
	fp.Start()
	const horizon = 2000.0
	nw.Run(horizon)
	frac := fp.DownTime() / horizon
	if math.Abs(frac-0.1) > 0.03 {
		t.Fatalf("down fraction %v, want ~0.10", frac)
	}
	if fp.Failures() == 0 {
		t.Fatal("no failures recorded")
	}
}

func TestFailureProcessZeroFractionInert(t *testing.T) {
	nw := Must(New(Config{Positions: []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Seed: 7}))
	fp := NewFailureProcess(nw.Nodes[0], rng.ForNode(7, rng.StreamFailure, 0))
	fp.Start()
	nw.Run(100)
	if fp.Failures() != 0 || fp.DownTime() != 0 {
		t.Fatal("zero-fraction process caused failures")
	}
}

func TestFailureProcessStopRecovers(t *testing.T) {
	nw := Must(New(Config{Positions: []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Seed: 8}))
	nw.Install(func(n *Node) Protocol { return &echoProto{} })
	fp := NewFailureProcess(nw.Nodes[0], rng.ForNode(8, rng.StreamFailure, 0))
	fp.OffFraction = 0.9 // nearly always down
	fp.Cycle = 1
	fp.Start()
	nw.Run(50)
	fp.Stop()
	if !nw.Nodes[0].Up() {
		t.Fatal("Stop left node down")
	}
}

func TestTrafficThroughFailedNodeLost(t *testing.T) {
	nw := Must(New(Config{Positions: []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Seed: 9}))
	nw.Install(func(n *Node) Protocol { return &echoProto{} })
	delivered := 0
	nw.Nodes[1].OnAppReceive = func(*packet.Packet) { delivered++ }
	nw.Nodes[1].Fail()
	nw.Nodes[0].Net.Send(1, packet.SizeData)
	nw.Run(1)
	if delivered != 0 {
		t.Fatal("failed node received traffic")
	}
	nw.Nodes[1].Recover()
	nw.Nodes[0].Net.Send(1, packet.SizeData)
	nw.Run(2)
	if delivered != 1 {
		t.Fatalf("recovered node delivered %d, want 1", delivered)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for N=0 without positions")
		}
	}()
	Must(New(Config{Seed: 1}))
}

func TestTotalEnergyPositive(t *testing.T) {
	nw := Must(New(Config{Positions: []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Seed: 10}))
	nw.Install(func(n *Node) Protocol { return &echoProto{} })
	nw.Nodes[0].Net.Send(1, packet.SizeData)
	nw.Run(10)
	if nw.TotalEnergy() <= 0 {
		t.Fatal("energy accounting returned nothing")
	}
}
