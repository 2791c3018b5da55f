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

	table    ActiveTable
	seq      uint32
	disc     discoveryFlood
	fwdDedup packet.DedupCache
	consumed packet.DedupCache

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
	g := &Gradient{repairStart: make(map[packet.NodeID]sim.Time)}
	g.disc.seen.Init(dedupCap)
	g.fwdDedup.Init(dedupCap)
	g.consumed.Init(dedupCap)
	return g
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
	d := g.disc.discover(g, g.n, target)
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

// The discoverer steps of Gradient Routing's setup flood.

func (g *Gradient) flood() (*discoveryFlood, *node.Node) { return &g.disc, g.n }

// discoveryFrame opens a repair window at a discovery's first re-flood.
func (g *Gradient) discoveryFrame(target packet.NodeID, retry bool) *packet.Packet {
	if _, open := g.repairStart[target]; retry && !open {
		g.repairStart[target] = g.n.Kernel.Now()
	}
	g.stats[GradDiscoveriesSent].Inc()
	return &packet.Packet{
		Kind: packet.KindDiscovery, To: packet.Broadcast,
		Origin: g.n.ID, Target: target, Seq: g.nextSeq(),
		HopCount: 1, TTL: packet.HopLimit, Size: packet.SizeControl,
		CreatedAt: g.n.Kernel.Now(),
	}
}

func (g *Gradient) duplicateDiscovery(*packet.Packet) {}

// answerDiscovery establishes the reverse gradient with a reply that
// flows back down the just-built gradient.
func (g *Gradient) answerDiscovery(pkt *packet.Packet) {
	g.stats[GradRepliesSent].Inc()
	g.n.MAC.Enqueue(&packet.Packet{
		Kind: packet.KindReply, To: packet.Broadcast,
		Origin: g.n.ID, Target: pkt.Origin, Seq: g.nextSeq(),
		HopCount: 1, ExpectedHops: g.table.Hops(pkt.Origin),
		TTL: packet.HopLimit, Size: packet.SizeControl, CreatedAt: g.n.Kernel.Now(),
	}, 0)
}

func (g *Gradient) rebroadcastDiscovery(fwd packet.Packet, backoff sim.Time) {
	forwardLater(g.n, fwd, backoff, 0, &g.stats[GradDiscoveryForwards])
}

func (g *Gradient) knowsWay(target packet.NodeID) bool { return g.table.Hops(target) >= 0 }

func (g *Gradient) flushParked(target packet.NodeID, queue []pendingData) {
	g.endRepair(target)
	for _, pd := range queue {
		g.sendData(target, pd.size, pd.created)
	}
}

func (g *Gradient) dropParked(target packet.NodeID, queue []pendingData) {
	g.stats[GradDroppedNoRoute].Add(uint32(len(queue)))
	// The repair failed; no latency sample (give-ups are visible
	// through gradient.dropped_no_route).
	delete(g.repairStart, target)
}

// OnDeliver implements node.Protocol.
func (g *Gradient) OnDeliver(pkt *packet.Packet, rssiDBm float64) {
	now := g.n.Kernel.Now()
	switch pkt.Kind {
	case packet.KindDiscovery:
		g.table.Observe(pkt.Origin, pkt.HopCount, pkt.Seq, now)
		if g.disc.receive(g, g.n, pkt) {
			g.stats[GradTTLDrops].Inc()
		}
	case packet.KindReply, packet.KindData:
		g.table.Observe(pkt.Origin, pkt.HopCount, pkt.Seq, now)
		key := pkt.Key()
		if pkt.Target == g.n.ID {
			if !g.consumed.Seen(key) {
				if pkt.Kind == packet.KindData {
					g.stats[GradDataDelivered].Inc()
					g.n.Deliver(pkt)
				} else {
					g.disc.resolve(g, pkt.Origin)
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
		fwd := *pkt
		fwd.To = packet.Broadcast
		fwd.HopCount++
		fwd.TTL--
		fwd.ExpectedHops = h
		backoff := sim.Time(g.n.Rng.Float64()) * gradientBackoff
		forwardLater(g.n, fwd, backoff, float64(backoff), &g.stats[GradForwards])
	}
}

// OnSent implements node.Protocol.
func (g *Gradient) OnSent(pkt *packet.Packet) {}

// OnUnicastFailed implements node.Protocol; Gradient never unicasts.
func (g *Gradient) OnUnicastFailed(pkt *packet.Packet) {}
