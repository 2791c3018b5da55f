package flood

import (
	"slices"
	"strings"
	"testing"

	"routeless/internal/core"
	"routeless/internal/geo"
	"routeless/internal/mac"
	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// build constructs a network with the given positions running one
// flooding config on every node.
func build(t *testing.T, cfg Config, seed int64, positions ...geo.Point) (*node.Network, []*Flooding) {
	t.Helper()
	nw := node.Must(node.New(node.Config{Positions: positions, Seed: seed}))
	floods := make([]*Flooding, len(positions))
	i := 0
	nw.Install(func(n *node.Node) node.Protocol {
		f := New(&cfg)
		floods[i] = f
		i++
		return f
	})
	return nw, floods
}

func chain(n int, spacing float64) []geo.Point {
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Point{X: float64(i) * spacing, Y: 0}
	}
	return out
}

func TestCounter1DeliversAlongChain(t *testing.T) {
	nw, floods := build(t, Counter1Config(5e-3), 1, chain(5, 200)...)
	var got []*packet.Packet
	nw.Nodes[4].OnAppReceive = func(p *packet.Packet) { got = append(got, p.Clone()) }
	floods[0].Send(4, packet.SizeData)
	nw.Run(2)
	if len(got) != 1 {
		t.Fatalf("destination delivered %d, want 1", len(got))
	}
	if got[0].HopCount != 4 {
		t.Fatalf("hop count %d, want 4 on a 5-node chain", got[0].HopCount)
	}
	if got[0].Origin != 0 || got[0].Target != 4 {
		t.Fatal("endpoint fields corrupted in flight")
	}
}

func TestCounter1EachNodeForwardsOnce(t *testing.T) {
	nw, floods := build(t, Counter1Config(5e-3), 2, chain(5, 200)...)
	floods[0].Send(4, packet.SizeData)
	nw.Run(2)
	for i, f := range floods[1:] {
		if f.Count(Forwards) != 1 {
			t.Fatalf("node %d forwarded %d times, want 1", i+1, f.Count(Forwards))
		}
	}
	if floods[0].Count(Forwards) != 0 {
		t.Fatal("source re-forwarded its own packet")
	}
	// Interior nodes hear duplicates from both sides.
	if floods[1].Count(Duplicates) == 0 {
		t.Fatal("interior node saw no duplicates — dedup untested")
	}
}

func TestFloodReachesEveryNodeInField(t *testing.T) {
	nw := node.Must(node.New(node.Config{N: 60, Rect: geo.NewRect(1000, 1000), Seed: 3, EnsureConnected: true}))
	floods := map[packet.NodeID]*Flooding{}
	fcfg := Counter1Config(5e-3)
	nw.Install(func(n *node.Node) node.Protocol {
		f := New(&fcfg)
		floods[n.ID] = f
		return f
	})
	floods[0].Send(packet.None, packet.SizeData) // pure dissemination
	nw.Run(5)
	missed := 0
	for id, f := range floods {
		if id == 0 {
			continue
		}
		if f.Count(Forwards) == 0 && f.Count(Duplicates) == 0 {
			missed++
		}
	}
	// Collisions can starve a couple of leaf nodes, but a connected
	// 60-node field must be almost fully covered.
	if missed > 3 {
		t.Fatalf("%d/59 nodes never saw the flood", missed)
	}
}

func TestSSAFFarNodeForwardsFirst(t *testing.T) {
	// Source at 0; near relay at 100 m; far relay at 240 m. SSAF must
	// have the far (weak-signal) relay rebroadcast before the near one.
	cfg := SSAFConfig(10e-3, -55.1, -33.2) // span: RSSI at 250 m .. 25 m
	positions := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 240, Y: 0}}
	nw, floods := build(t, cfg, 4, positions...)
	var order []packet.NodeID
	for i, f := range floods {
		id := packet.NodeID(i)
		f.OnForward = func(*packet.Packet) { order = append(order, id) }
	}
	floods[0].Send(packet.None, packet.SizeData)
	nw.Run(2)
	if len(order) < 2 {
		t.Fatalf("expected both relays to forward, got %v", order)
	}
	if order[0] != 2 {
		t.Fatalf("forward order %v, want far relay (n2) first", order)
	}
}

func TestSSAFBeatsCounter1HopsOnCross(t *testing.T) {
	// A source with relays at mixed distances and a destination two
	// hops away: SSAF should find the 2-hop route while counter-1 will
	// sometimes route through the near relay chain (3 hops). Compare on
	// many seeds: SSAF's mean delivered hop count must not exceed
	// counter-1's.
	positions := []geo.Point{
		{X: 0, Y: 0},     // source
		{X: 80, Y: 20},   // near relay
		{X: 160, Y: -20}, // mid relay
		{X: 240, Y: 0},   // far relay
		{X: 480, Y: 0},   // destination (reached only via far relay)
	}
	run := func(cfg Config, seed int64) (hops int, ok bool) {
		nw, floods := build(t, cfg, seed, positions...)
		var got *packet.Packet
		nw.Nodes[4].OnAppReceive = func(p *packet.Packet) {
			if got == nil {
				got = p.Clone()
			}
		}
		floods[0].Send(4, packet.SizeData)
		nw.Run(2)
		if got == nil {
			return 0, false
		}
		return got.HopCount, true
	}
	ssafCfg := SSAFConfig(10e-3, -55.1, -33.2)
	c1Cfg := Counter1Config(10e-3)
	var ssafSum, c1Sum, n int
	for seed := int64(0); seed < 20; seed++ {
		hs, okS := run(ssafCfg, seed)
		hc, okC := run(c1Cfg, seed)
		if okS && okC {
			ssafSum += hs
			c1Sum += hc
			n++
		}
	}
	if n < 15 {
		t.Fatalf("too few successful runs: %d", n)
	}
	if ssafSum > c1Sum {
		t.Fatalf("SSAF mean hops (%d/%d) worse than counter-1 (%d/%d)", ssafSum, n, c1Sum, n)
	}
}

func TestCancelVariantSuppressesForwards(t *testing.T) {
	// A dense clique: with cancellation, overheard duplicates kill
	// pending rebroadcasts, so total forwards shrink.
	positions := []geo.Point{
		{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 0, Y: 50}, {X: 50, Y: 50}, {X: 25, Y: 25}, {X: 100, Y: 25},
	}
	total := func(cancel bool) uint64 {
		cfg := SSAFConfig(50e-3, -55.1, -33.2)
		cfg.Cancel = cancel
		nw, floods := build(t, cfg, 5, positions...)
		floods[0].Send(packet.None, packet.SizeData)
		nw.Run(2)
		var sum uint64
		for _, f := range floods {
			sum += f.Count(Forwards)
		}
		return sum
	}
	plain, cancelled := total(false), total(true)
	if cancelled >= plain {
		t.Fatalf("cancellation did not reduce forwards: %d vs %d", cancelled, plain)
	}
	// And the cancel counter must actually fire.
	cfg := SSAFConfig(50e-3, -55.1, -33.2)
	cfg.Cancel = true
	nw, floods := build(t, cfg, 5, positions...)
	floods[0].Send(packet.None, packet.SizeData)
	nw.Run(2)
	var cancels uint64
	for _, f := range floods {
		cancels += f.Count(Cancelled)
	}
	if cancels == 0 {
		t.Fatal("Cancelled counter never incremented")
	}
}

func TestBlindFloodingTTLBounded(t *testing.T) {
	cfg := Config{Blind: true, TTL: 4}
	nw, floods := build(t, cfg, 6, chain(3, 150)...)
	floods[0].Send(packet.None, packet.SizeData)
	nw.Run(5)
	var forwards uint64
	for _, f := range floods {
		forwards += f.Count(Forwards)
	}
	if forwards == 0 {
		t.Fatal("blind flooding never forwarded")
	}
	var ttlDrops uint64
	for _, f := range floods {
		ttlDrops += f.Count(TTLDrops)
	}
	if ttlDrops == 0 {
		t.Fatal("TTL never exhausted — unbounded blind flood?")
	}
}

func TestBlindForwardsMoreThanCounter1(t *testing.T) {
	positions := chain(4, 150)
	count := func(cfg Config) uint64 {
		nw, floods := build(t, cfg, 7, positions...)
		floods[0].Send(packet.None, packet.SizeData)
		nw.Run(5)
		var sum uint64
		for _, f := range floods {
			sum += f.Count(Forwards)
		}
		return sum
	}
	blind := count(Config{Blind: true, TTL: 6})
	c1 := count(Counter1Config(5e-3))
	if blind <= c1 {
		t.Fatalf("blind (%d) should out-transmit counter-1 (%d)", blind, c1)
	}
}

func TestTTLDropsAtHorizon(t *testing.T) {
	cfg := Counter1Config(5e-3)
	cfg.TTL = 2 // source + one relay hop only
	nw, floods := build(t, cfg, 8, chain(4, 200)...)
	delivered := false
	nw.Nodes[3].OnAppReceive = func(*packet.Packet) { delivered = true }
	floods[0].Send(3, packet.SizeData)
	nw.Run(2)
	if delivered {
		t.Fatal("packet crossed 3 hops with TTL 2")
	}
	if floods[1].Count(Forwards) != 1 {
		t.Fatalf("first relay forwards = %d, want 1", floods[1].Count(Forwards))
	}
	if floods[2].Count(TTLDrops) == 0 {
		t.Fatal("second relay should have dropped on TTL")
	}
}

func TestDuplicateOriginSequencesIndependent(t *testing.T) {
	// Two sources with the same sequence numbers must not collide in
	// the dedup space (keys include the origin).
	nw, floods := build(t, Counter1Config(5e-3), 9, chain(3, 150)...)
	seen := map[packet.NodeID]int{}
	nw.Nodes[1].OnAppReceive = func(p *packet.Packet) { seen[p.Origin]++ }
	floods[0].Send(1, packet.SizeData)
	floods[2].Send(1, packet.SizeData)
	nw.Run(2)
	if seen[0] != 1 || seen[2] != 1 {
		t.Fatalf("deliveries by origin = %v, want one each", seen)
	}
}

func TestSendToNoneNeverDelivers(t *testing.T) {
	nw, floods := build(t, Counter1Config(5e-3), 10, chain(3, 150)...)
	for _, n := range nw.Nodes {
		n.OnAppReceive = func(*packet.Packet) { t.Fatal("dissemination packet delivered as app data") }
	}
	floods[0].Send(packet.None, packet.SizeData)
	nw.Run(2)
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing policy")
		}
	}()
	New(&Config{})
}

func TestBackoffPriorityReachesMAC(t *testing.T) {
	// The forwarded packet's MAC priority equals its elected backoff;
	// verify indirectly: a forward is enqueued and transmitted.
	nw, floods := build(t, SSAFConfig(5e-3, -55.1, -33.2), 11, chain(3, 200)...)
	floods[0].Send(2, packet.SizeData)
	nw.Run(2)
	if nw.Nodes[1].MAC.Count(mac.TxFrames) < 1 {
		t.Fatal("relay never transmitted")
	}
	_ = sim.Time(0)
}

func TestLocationBasedFlooding(t *testing.T) {
	// The idealized scheme SSAF approximates: with true positions the
	// far relay must deterministically fire first.
	positions := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 240, Y: 0}}
	nw := node.Must(node.New(node.Config{Positions: positions, Seed: 31}))
	locator := func(id packet.NodeID) geo.Point { return positions[id] }
	cfg := LocationConfig(10e-3, 250, locator)
	floods := make([]*Flooding, 0, 3)
	var order []packet.NodeID
	nw.Install(func(n *node.Node) node.Protocol {
		f := New(&cfg)
		id := n.ID
		f.OnForward = func(*packet.Packet) { order = append(order, id) }
		floods = append(floods, f)
		return f
	})
	floods[0].Send(packet.None, 64)
	nw.Run(2)
	if len(order) < 2 || order[0] != 2 {
		t.Fatalf("forward order %v, want far relay first", order)
	}
}

func TestLocationPolicyAbstainsWithoutLocator(t *testing.T) {
	// LocationAware without a Locator yields DistanceToSender == -1:
	// nobody forwards.
	cfg := Config{Policy: core.LocationAware{Lambda: 10e-3, Range: 250, JitterFrac: 0.1}}
	nw, floods := build(t, cfg, 32, chain(3, 150)...)
	floods[0].Send(packet.None, 64)
	nw.Run(2)
	for i, f := range floods {
		if f.Count(Forwards) != 0 {
			t.Fatalf("node %d forwarded without position information", i)
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
		{"flood.", table, int(numSeries)},
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
