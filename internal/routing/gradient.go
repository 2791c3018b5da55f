package routing

import (
	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// gradientBackoff bounds the uniform jitter before a gradient-qualified
// node retransmits a reply or data packet. Gradient Routing's discovery
// flood shares the retry policy and backoff of the other two protocols.
const gradientBackoff sim.Time = 5e-3

// GradientSeries indexes one cell of a node's Gradient counter block.
type GradientSeries uint8

// The gradient.* counters, in journal order.
const (
	GradDataSent GradientSeries = iota
	GradDataDelivered
	GradForwards       // gradient-qualified retransmissions
	GradNotCloserDrops // copies dropped for lacking progress
	GradDiscoveriesSent
	GradDiscoveryForwards
	GradRepliesSent
	GradDroppedNoRoute
	GradTTLDrops
	GradRepairs // gradients rebuilt after a discovery retry
	numGradientSeries
)

// gradientTable names the series; it is the only place they are spelled.
var gradientTable = metrics.Table{
	Counters: []string{
		GradDataSent:          "gradient.data_sent",
		GradDataDelivered:     "gradient.data_delivered",
		GradForwards:          "gradient.forwards",
		GradNotCloserDrops:    "gradient.not_closer_drops",
		GradDiscoveriesSent:   "gradient.discoveries_sent",
		GradDiscoveryForwards: "gradient.discovery_forwards",
		GradRepliesSent:       "gradient.replies_sent",
		GradDroppedNoRoute:    "gradient.dropped_no_route",
		GradTTLDrops:          "gradient.ttl_drops",
		GradRepairs:           "gradient.repairs",
	},
	Hists: []string{"gradient.repair_latency_s"},
}

// Gradient is the §4.4 comparison protocol (after Poor's Gradient
// Routing): "only nodes with a smaller hop count to the destination are
// allowed to forward packets", and "every node with a smaller hop count
// may retransmit the same packet" — no election, no cancellation, so a
// band of redundant copies marches toward the destination. The paper's
// criticism — "it makes the network more congested" — is exactly what
// the ABL4 ablation measures against Routeless Routing.
type Gradient struct {
	n *node.Node

	table       *ActiveTable
	seq         uint32
	floodDedup  *packet.DedupCache
	fwdDedup    *packet.DedupCache
	consumed    *packet.DedupCache
	discovering discoverySet

	// repairStart records when a discovery first re-flooded for a
	// target; cleared when the discovery succeeds or gives up.
	repairStart map[packet.NodeID]sim.Time

	stats [numGradientSeries]metrics.Counter32
	// repairLatency spans a discovery's first re-flood (the gradient
	// failed to form, or dissolved under churn) to the moment it yields a
	// usable gradient. Gradient has no per-packet maintenance, so
	// discovery retry is its repair mechanism; first-attempt successes
	// never open a window.
	repairLatency [1]metrics.Histogram
}

// NewGradient builds an instance; install with Network.Install.
func NewGradient() *Gradient {
	return &Gradient{
		table:       NewActiveTable(),
		floodDedup:  packet.NewDedupCache(8192),
		fwdDedup:    packet.NewDedupCache(8192),
		consumed:    packet.NewDedupCache(8192),
		discovering: make(discoverySet),
		repairStart: make(map[packet.NodeID]sim.Time),
	}
}

// Start implements node.Protocol.
func (g *Gradient) Start(n *node.Node) { g.n = n }

// Count returns the current value of one of the node's counters.
func (g *Gradient) Count(s GradientSeries) uint64 { return g.stats[s].Value() }

// MetricBlock implements metrics.Source.
func (g *Gradient) MetricBlock() metrics.Block {
	return metrics.Block{Table: &gradientTable, Counters: g.stats[:], Hists: g.repairLatency[:]}
}

// endRepair closes an open repair window for target: the discovery that
// had to retry finally produced a usable gradient.
func (g *Gradient) endRepair(target packet.NodeID) {
	t0, ok := g.repairStart[target]
	if !ok {
		return
	}
	delete(g.repairStart, target)
	g.stats[GradRepairs].Inc()
	g.repairLatency[0].Observe(float64(g.n.Kernel.Now() - t0))
}

// Table exposes the gradient table (read-mostly; used by tests and
// experiment instrumentation).
func (g *Gradient) Table() *ActiveTable { return g.table }

// Send implements node.Protocol.
func (g *Gradient) Send(target packet.NodeID, size int) {
	if size == 0 {
		size = packet.SizeData
	}
	now := g.n.Kernel.Now()
	g.stats[GradDataSent].Inc()
	if target == g.n.ID {
		g.stats[GradDataDelivered].Inc()
		g.n.Deliver(&packet.Packet{Kind: packet.KindData, Origin: g.n.ID, Target: target, Size: size, CreatedAt: now})
		return
	}
	if h := g.table.Hops(target); h >= 0 {
		g.sendData(target, size, now)
		return
	}
	d, started := g.discovering.ensure(target, g.n.Kernel, func() { g.discoveryTimeout(target) })
	if started {
		g.floodDiscovery(target)
		d.timer.Reset(discoveryTimeout)
	}
	d.queue = append(d.queue, pendingData{size: size, created: now})
}

func (g *Gradient) nextSeq() uint32 { g.seq++; return g.seq }

func (g *Gradient) sendData(target packet.NodeID, size int, created sim.Time) {
	g.n.MAC.Enqueue(&packet.Packet{
		Kind: packet.KindData, To: packet.Broadcast,
		Origin: g.n.ID, Target: target, Seq: g.nextSeq(),
		HopCount: 1, ExpectedHops: g.table.Hops(target),
		TTL: packet.HopLimit, Size: size, CreatedAt: created,
	}, 0)
}

func (g *Gradient) floodDiscovery(target packet.NodeID) {
	pkt := &packet.Packet{
		Kind: packet.KindDiscovery, To: packet.Broadcast,
		Origin: g.n.ID, Target: target, Seq: g.nextSeq(),
		HopCount: 1, TTL: packet.HopLimit, Size: packet.SizeControl,
		CreatedAt: g.n.Kernel.Now(),
	}
	g.floodDedup.Seen(pkt.Key())
	g.stats[GradDiscoveriesSent].Inc()
	g.n.MAC.Enqueue(pkt, 0)
}

func (g *Gradient) discoveryTimeout(target packet.NodeID) {
	// The gradient may have been learned passively from overheard
	// traffic even though the reply never reached us; if so the
	// discovery has succeeded — flush instead of re-flooding or
	// dropping the queue next to a usable gradient.
	if g.table.Hops(target) >= 0 {
		g.endRepair(target)
		for _, pd := range g.discovering.succeed(target) {
			g.sendData(target, pd.size, pd.created)
		}
		return
	}
	d, retry := g.discovering.step(target)
	if d == nil {
		return
	}
	if !retry {
		g.stats[GradDroppedNoRoute].Add(uint32(len(d.queue)))
		// The repair failed; no latency sample (give-ups are visible
		// through gradient.dropped_no_route).
		delete(g.repairStart, target)
		return
	}
	if _, open := g.repairStart[target]; !open {
		g.repairStart[target] = g.n.Kernel.Now()
	}
	g.floodDiscovery(target)
	d.timer.Reset(discoveryTimeout)
}

// OnDeliver implements node.Protocol.
func (g *Gradient) OnDeliver(pkt *packet.Packet, rssiDBm float64) {
	now := g.n.Kernel.Now()
	switch pkt.Kind {
	case packet.KindDiscovery:
		g.table.Observe(pkt.Origin, pkt.HopCount, pkt.Seq, now)
		if g.floodDedup.Seen(pkt.Key()) {
			return
		}
		if pkt.Target == g.n.ID {
			// Establish the reverse gradient with a reply that flows
			// back down the just-built gradient.
			g.stats[GradRepliesSent].Inc()
			g.n.MAC.Enqueue(&packet.Packet{
				Kind: packet.KindReply, To: packet.Broadcast,
				Origin: g.n.ID, Target: pkt.Origin, Seq: g.nextSeq(),
				HopCount: 1, ExpectedHops: g.table.Hops(pkt.Origin),
				TTL: packet.HopLimit, Size: packet.SizeControl, CreatedAt: now,
			}, 0)
			return
		}
		if pkt.TTL <= 1 {
			g.stats[GradTTLDrops].Inc()
			return
		}
		backoff := sim.Time(g.n.Rng.Float64()) * discoveryBackoff
		fwd := pkt.Clone()
		fwd.To = packet.Broadcast
		fwd.HopCount++
		fwd.TTL--
		g.n.Kernel.Schedule(backoff, func() {
			g.stats[GradDiscoveryForwards].Inc()
			g.n.MAC.Enqueue(fwd, 0)
		})
	case packet.KindReply, packet.KindData:
		g.table.Observe(pkt.Origin, pkt.HopCount, pkt.Seq, now)
		key := pkt.Key()
		if pkt.Target == g.n.ID {
			if !g.consumed.Seen(key) {
				if pkt.Kind == packet.KindData {
					g.stats[GradDataDelivered].Inc()
					g.n.Deliver(pkt)
				} else {
					g.endRepair(pkt.Origin)
					for _, pd := range g.discovering.succeed(pkt.Origin) {
						g.sendData(pkt.Origin, pd.size, pd.created)
					}
				}
			}
			return
		}
		if g.fwdDedup.Seen(key) {
			return // each node retransmits a packet at most once
		}
		if pkt.TTL <= 1 {
			g.stats[GradTTLDrops].Inc()
			return
		}
		h := g.table.Hops(pkt.Target)
		if h < 0 || h >= pkt.ExpectedHops {
			g.stats[GradNotCloserDrops].Inc()
			return // only strictly closer nodes forward
		}
		fwd := pkt.Clone()
		fwd.To = packet.Broadcast
		fwd.HopCount++
		fwd.TTL--
		fwd.ExpectedHops = h
		backoff := sim.Time(g.n.Rng.Float64()) * gradientBackoff
		g.n.Kernel.Schedule(backoff, func() {
			g.stats[GradForwards].Inc()
			g.n.MAC.Enqueue(fwd, float64(backoff))
		})
	}
}

// OnSent implements node.Protocol.
func (g *Gradient) OnSent(pkt *packet.Packet) {}

// OnUnicastFailed implements node.Protocol; Gradient never unicasts.
func (g *Gradient) OnUnicastFailed(pkt *packet.Packet) {}
