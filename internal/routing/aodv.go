package routing

import (
	"slices"

	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// AODVConfig selects the baseline's variant; the zero value is plain
// AODV with hello beaconing.
type AODVConfig struct {
	// NoHello disables beaconing: link failures are then detected only
	// through link-layer ARQ feedback. The paper's packet counts
	// (Figures 3–4) scale with traffic rather than time, implying its
	// AODV ran without periodic hellos; experiments use this mode.
	NoHello bool
	// ExpandingRing enables AODV's expanding-ring search: route
	// requests start with a small TTL and widen on each retry
	// (1, 3, 7, then full TTL), trading discovery latency for far
	// fewer flood transmissions when destinations are close. Off by
	// default to match the paper's "original flooding" description.
	ExpandingRing bool
}

// AODV's fixed parameters. Route requests share the discovery retry
// policy and rebroadcast backoff with the other two protocols.
const (
	// helloInterval is the beacon period.
	helloInterval sim.Time = 1
	// helloLoss is how many missed intervals declare a neighbor dead.
	helloLoss = 2
	// routeLifetime expires unused routes.
	routeLifetime sim.Time = 30
)

// AODVSeries indexes one cell of a node's AODV counter block.
type AODVSeries uint8

// The aodv.* counters, in journal order.
const (
	AODVDataSent AODVSeries = iota
	AODVDataForwarded
	AODVDataDelivered
	AODVDataDropped // no route at an intermediate hop
	AODVRREQSent
	AODVRREQForwarded
	AODVRREPSent
	AODVRREPForwarded
	AODVRERRSent
	AODVHellos
	AODVLinkBreaks // ARQ failures + hello losses
	AODVRoutesInvalided
	AODVRediscoveries
	AODVDroppedNoRoute // source-side, discovery gave up
	AODVRepairs        // parked packets that found a route again
	numAODVSeries
)

// aodvTable names the series; it is the only place they are spelled.
var aodvTable = metrics.Table{
	Counters: []string{
		AODVDataSent:        "aodv.data_sent",
		AODVDataForwarded:   "aodv.data_forwarded",
		AODVDataDelivered:   "aodv.data_delivered",
		AODVDataDropped:     "aodv.data_dropped",
		AODVRREQSent:        "aodv.rreq_sent",
		AODVRREQForwarded:   "aodv.rreq_forwarded",
		AODVRREPSent:        "aodv.rrep_sent",
		AODVRREPForwarded:   "aodv.rrep_forwarded",
		AODVRERRSent:        "aodv.rerr_sent",
		AODVHellos:          "aodv.hellos",
		AODVLinkBreaks:      "aodv.link_breaks",
		AODVRoutesInvalided: "aodv.routes_invalided",
		AODVRediscoveries:   "aodv.rediscoveries",
		AODVDroppedNoRoute:  "aodv.dropped_no_route",
		AODVRepairs:         "aodv.repairs",
	},
	Hists: []string{"aodv.repair_latency_s"},
}

// route is one forward-table row.
type route struct {
	nextHop packet.NodeID
	hops    int
	seq     uint32 // destination sequence number (freshness)
	expiry  sim.Time
}

// rreqInfo is the payload of route requests: the originator's sequence
// number snapshot (for reverse-route freshness).
type rreqInfo struct {
	originSeq uint32
}

// rrepInfo is the payload of route replies.
type rrepInfo struct {
	destSeq uint32
}

// rerrInfo lists destinations that became unreachable.
type rerrInfo struct {
	unreachable []packet.NodeID
}

// AODV is the reactive-routing baseline of §4.3: explicit routes
// discovered by flooding RREQs, maintained with hello beacons and
// link-layer feedback, and repaired through RERR + re-discovery. Its
// per-packet forwarding is unicast with MAC acknowledgements.
type AODV struct {
	cfg AODVConfig
	n   *node.Node

	// salvage holds in-flight data packets parked behind a route
	// re-discovery, keyed by their final target.
	salvage map[packet.NodeID][]*packet.Packet
	// repairStart records when the first packet for a target was parked;
	// cleared when the repair resolves (or the discovery gives up).
	repairStart map[packet.NodeID]sim.Time

	seqNo  uint32 // own destination sequence number
	rreqID uint32

	routes    map[packet.NodeID]*route
	rreqSeen  *packet.DedupCache
	consumed  *packet.DedupCache         // end-to-end dedup of salvaged copies
	neighbors map[packet.NodeID]sim.Time // last heard

	discovering discoverySet

	hello   *sim.Ticker
	monitor *sim.Ticker

	stats [numAODVSeries]metrics.Counter32
	// repairLatency spans a data packet's parking behind a re-discovery
	// (link break or route expiry with no alternative) to the moment a
	// valid route let it move again — AODV's route-repair recovery
	// metric. Instant salvages over an existing alternate route never
	// open a window and are not counted.
	repairLatency [1]metrics.Histogram
}

// NewAODV builds an instance; install with Network.Install.
func NewAODV(cfg AODVConfig) *AODV {
	return &AODV{
		cfg:         cfg,
		salvage:     make(map[packet.NodeID][]*packet.Packet),
		repairStart: make(map[packet.NodeID]sim.Time),
		routes:      make(map[packet.NodeID]*route),
		rreqSeen:    packet.NewDedupCache(8192),
		consumed:    packet.NewDedupCache(8192),
		neighbors:   make(map[packet.NodeID]sim.Time),
		discovering: make(discoverySet),
	}
}

// Start implements node.Protocol.
func (a *AODV) Start(n *node.Node) {
	a.n = n
	if a.cfg.NoHello {
		return
	}
	a.hello = sim.NewTicker(n.Kernel, helloInterval, a.sendHello)
	// De-phase beacons across nodes.
	a.hello.StartAfter(sim.Time(n.Rng.Float64()) * helloInterval)
	a.monitor = sim.NewTicker(n.Kernel, helloInterval, a.checkNeighbors)
	a.monitor.StartAfter(sim.Time(1+n.Rng.Float64()) * helloInterval)
}

// Count returns the current value of one of the node's counters.
func (a *AODV) Count(s AODVSeries) uint64 { return a.stats[s].Value() }

// MetricBlock implements metrics.Source.
func (a *AODV) MetricBlock() metrics.Block {
	return metrics.Block{Table: &aodvTable, Counters: a.stats[:], Hists: a.repairLatency[:]}
}

// endRepair closes an open repair window for target: parked data can
// move again. No-op when no window is open.
func (a *AODV) endRepair(target packet.NodeID) {
	t0, ok := a.repairStart[target]
	if !ok {
		return
	}
	delete(a.repairStart, target)
	a.stats[AODVRepairs].Inc()
	a.repairLatency[0].Observe(float64(a.n.Kernel.Now() - t0))
}

// RouteTo reports the current route to target (hops, ok) — test and
// instrumentation access.
func (a *AODV) RouteTo(target packet.NodeID) (int, bool) {
	r := a.validRoute(target)
	if r == nil {
		return 0, false
	}
	return r.hops, true
}

func (a *AODV) validRoute(target packet.NodeID) *route {
	r, ok := a.routes[target]
	if !ok || a.n.Kernel.Now() > r.expiry {
		return nil
	}
	return r
}

func (a *AODV) nextSeq() uint32 {
	a.seqNo++
	return a.seqNo
}

// Send implements node.Protocol.
func (a *AODV) Send(target packet.NodeID, size int) {
	if size == 0 {
		size = packet.SizeData
	}
	now := a.n.Kernel.Now()
	a.stats[AODVDataSent].Inc()
	if target == a.n.ID {
		a.stats[AODVDataDelivered].Inc()
		a.n.Deliver(&packet.Packet{Kind: packet.KindData, Origin: a.n.ID, Target: target, Size: size, CreatedAt: now})
		return
	}
	a.routeOrDiscover(target, size, now)
}

// routeOrDiscover transmits data along a known route or parks it behind
// a (possibly new) route discovery. created is preserved so end-to-end
// delay includes discovery and recovery latency.
func (a *AODV) routeOrDiscover(target packet.NodeID, size int, created sim.Time) {
	if r := a.validRoute(target); r != nil {
		a.sendDataVia(r, target, size, created)
		return
	}
	d, started := a.discovering.ensure(target, a.n.Kernel, func() { a.discoveryTimeout(target) })
	if started {
		a.floodRREQ(target, a.ringTTL(0))
		d.timer.Reset(discoveryTimeout)
	}
	d.queue = append(d.queue, pendingData{size: size, created: created})
}

func (a *AODV) sendDataVia(r *route, target packet.NodeID, size int, created sim.Time) {
	r.expiry = a.n.Kernel.Now() + routeLifetime
	a.n.MAC.Enqueue(&packet.Packet{
		Kind: packet.KindData, To: r.nextHop,
		Origin: a.n.ID, Target: target, Seq: a.nextSeq(),
		HopCount: 1, TTL: packet.HopLimit, Size: size, CreatedAt: created,
	}, 0)
}

// ringTTL returns the RREQ TTL for the attempt-th discovery try under
// expanding-ring search: 1, 3, 7, then the full TTL.
func (a *AODV) ringTTL(attempt int) int {
	if !a.cfg.ExpandingRing {
		return packet.HopLimit
	}
	rings := []int{1, 3, 7}
	if attempt < len(rings) {
		return rings[attempt]
	}
	return packet.HopLimit
}

func (a *AODV) floodRREQ(target packet.NodeID, ttl int) {
	a.rreqID++
	a.stats[AODVRREQSent].Inc()
	pkt := &packet.Packet{
		Kind: packet.KindRREQ, To: packet.Broadcast,
		Origin: a.n.ID, Target: target, Seq: a.rreqID,
		HopCount: 1, TTL: ttl, Size: packet.SizeControl,
		CreatedAt: a.n.Kernel.Now(),
		Payload:   rreqInfo{originSeq: a.nextSeq()},
	}
	a.rreqSeen.Seen(pkt.Key())
	a.n.MAC.Enqueue(pkt, 0)
}

func (a *AODV) discoveryTimeout(target packet.NodeID) {
	// A usable route may exist even though no RREP was addressed to us:
	// an overheard RREQ from the target or a forwarded RREP installs one
	// without triggering the success path. Flush through it instead of
	// re-flooding or dropping queued data next to a valid route.
	if r := a.validRoute(target); r != nil {
		for _, pd := range a.discovering.succeed(target) {
			a.sendDataVia(r, target, pd.size, pd.created)
		}
		a.flushSalvage(target)
		return
	}
	d, retry := a.discovering.step(target)
	if d == nil {
		return
	}
	if !retry {
		a.stats[AODVDroppedNoRoute].Add(uint32(len(d.queue) + len(a.salvage[target])))
		delete(a.salvage, target)
		// The repair failed; the window closes without a latency sample
		// (give-ups are visible through aodv.dropped_no_route).
		delete(a.repairStart, target)
		return
	}
	a.stats[AODVRediscoveries].Inc()
	a.floodRREQ(target, a.ringTTL(d.retries))
	d.timer.Reset(discoveryTimeout)
}

func (a *AODV) sendHello() {
	a.stats[AODVHellos].Inc()
	a.n.MAC.Enqueue(&packet.Packet{
		Kind: packet.KindHello, To: packet.Broadcast,
		Origin: a.n.ID, Seq: a.nextSeq(), Size: packet.SizeHello,
	}, 0)
}

// checkNeighbors expires silent neighbors and tears down routes through
// them.
func (a *AODV) checkNeighbors() {
	now := a.n.Kernel.Now()
	deadline := sim.Time(helloLoss) * helloInterval
	var dead []packet.NodeID
	for id, last := range a.neighbors {
		if now-last > deadline {
			dead = append(dead, id)
		}
	}
	slices.Sort(dead)
	for _, id := range dead {
		delete(a.neighbors, id)
		a.stats[AODVLinkBreaks].Inc()
		a.invalidateVia(id)
	}
}

// invalidateVia drops every route whose next hop is gone and advertises
// the loss.
func (a *AODV) invalidateVia(hop packet.NodeID) {
	var lost []packet.NodeID
	for dest, r := range a.routes {
		if r.nextHop == hop {
			delete(a.routes, dest)
			a.stats[AODVRoutesInvalided].Inc()
			lost = append(lost, dest)
		}
	}
	if hop != a.n.ID {
		// The neighbor itself is unreachable as a destination too.
		if _, ok := a.routes[hop]; ok {
			delete(a.routes, hop)
			a.stats[AODVRoutesInvalided].Inc()
		}
		lost = append(lost, hop)
	}
	if len(lost) == 0 {
		return
	}
	slices.Sort(lost)
	a.stats[AODVRERRSent].Inc()
	a.n.MAC.Enqueue(&packet.Packet{
		Kind: packet.KindRERR, To: packet.Broadcast,
		Origin: a.n.ID, Seq: a.nextSeq(), Size: packet.SizeControl,
		Payload: rerrInfo{unreachable: lost},
	}, 0)
}

// OnDeliver implements node.Protocol.
func (a *AODV) OnDeliver(pkt *packet.Packet, rssiDBm float64) {
	// Any frame doubles as a hello from its transmitter.
	a.neighbors[pkt.From] = a.n.Kernel.Now()
	switch pkt.Kind {
	case packet.KindHello:
		// Liveness only, handled above.
	case packet.KindRREQ:
		a.handleRREQ(pkt)
	case packet.KindRREP:
		if pkt.To == a.n.ID {
			a.handleRREP(pkt)
		}
	case packet.KindRERR:
		a.handleRERR(pkt)
	case packet.KindData:
		if pkt.To == a.n.ID {
			a.handleData(pkt)
		}
	}
}

// installRoute adopts a route if it is fresher or shorter than what we
// have.
func (a *AODV) installRoute(dest, nextHop packet.NodeID, hops int, seq uint32) {
	now := a.n.Kernel.Now()
	r, ok := a.routes[dest]
	if ok && now <= r.expiry {
		if seq < r.seq || (seq == r.seq && hops >= r.hops) {
			return
		}
	}
	a.routes[dest] = &route{nextHop: nextHop, hops: hops, seq: seq, expiry: now + routeLifetime}
}

func (a *AODV) handleRREQ(pkt *packet.Packet) {
	info, _ := pkt.Payload.(rreqInfo)
	// Reverse route to the originator through whoever relayed this copy.
	a.installRoute(pkt.Origin, pkt.From, pkt.HopCount, info.originSeq)
	if a.rreqSeen.Seen(pkt.Key()) {
		return
	}
	if pkt.Target == a.n.ID {
		// Destination answers with a unicast RREP along the reverse path.
		rev := a.validRoute(pkt.Origin)
		if rev == nil {
			return
		}
		a.stats[AODVRREPSent].Inc()
		a.n.MAC.Enqueue(&packet.Packet{
			Kind: packet.KindRREP, To: rev.nextHop,
			Origin: a.n.ID, Target: pkt.Origin, Seq: pkt.Seq,
			HopCount: 1, TTL: packet.HopLimit, Size: packet.SizeControl,
			Payload: rrepInfo{destSeq: a.nextSeq()},
		}, 0)
		return
	}
	if pkt.TTL <= 1 {
		return
	}
	// "In this particular implementation of AODV, the route discovery
	// procedure is based on original flooding" (§4.3): plain dedup
	// flooding with a random backoff, no prioritization.
	fwd := pkt.Clone()
	fwd.To = packet.Broadcast
	fwd.HopCount++
	fwd.TTL--
	backoff := sim.Time(a.n.Rng.Float64()) * discoveryBackoff
	a.n.Kernel.Schedule(backoff, func() {
		a.stats[AODVRREQForwarded].Inc()
		a.n.MAC.Enqueue(fwd, 0)
	})
}

func (a *AODV) handleRREP(pkt *packet.Packet) {
	info, _ := pkt.Payload.(rrepInfo)
	// Forward route to the replying destination.
	a.installRoute(pkt.Origin, pkt.From, pkt.HopCount, info.destSeq)
	if pkt.Target == a.n.ID {
		// Discovery complete: release queued and salvaged data.
		for _, pd := range a.discovering.succeed(pkt.Origin) {
			if r := a.validRoute(pkt.Origin); r != nil {
				a.sendDataVia(r, pkt.Origin, pd.size, pd.created)
			} else {
				a.stats[AODVDroppedNoRoute].Inc()
			}
		}
		a.flushSalvage(pkt.Origin)
		return
	}
	rev := a.validRoute(pkt.Target)
	if rev == nil {
		return // reverse route expired; originator will retry
	}
	fwd := pkt.Clone()
	fwd.To = rev.nextHop
	fwd.HopCount++
	if fwd.TTL--; fwd.TTL <= 0 {
		return
	}
	a.stats[AODVRREPForwarded].Inc()
	a.n.MAC.Enqueue(fwd, 0)
}

func (a *AODV) handleRERR(pkt *packet.Packet) {
	info, ok := pkt.Payload.(rerrInfo)
	if !ok {
		return
	}
	var propagate []packet.NodeID
	for _, dest := range info.unreachable {
		if r, ok := a.routes[dest]; ok && r.nextHop == pkt.From {
			delete(a.routes, dest)
			a.stats[AODVRoutesInvalided].Inc()
			propagate = append(propagate, dest)
		}
	}
	if len(propagate) > 0 {
		a.stats[AODVRERRSent].Inc()
		a.n.MAC.Enqueue(&packet.Packet{
			Kind: packet.KindRERR, To: packet.Broadcast,
			Origin: a.n.ID, Seq: a.nextSeq(), Size: packet.SizeControl,
			Payload: rerrInfo{unreachable: propagate},
		}, 0)
	}
}

func (a *AODV) handleData(pkt *packet.Packet) {
	if pkt.Target == a.n.ID {
		// Salvaged copies of one logical packet can arrive over two
		// paths; deliver only the first.
		if !a.consumed.Seen(pkt.Key()) {
			a.stats[AODVDataDelivered].Inc()
			a.n.Deliver(pkt)
		}
		return
	}
	r := a.validRoute(pkt.Target)
	if r == nil {
		// No usable route: salvage the packet behind a fresh discovery
		// rather than dropping it (and tell upstream via RERR).
		a.invalidateVia(pkt.Target)
		a.salvageData(pkt)
		return
	}
	fwd := pkt.Clone()
	fwd.To = r.nextHop
	fwd.HopCount++
	if fwd.TTL--; fwd.TTL <= 0 {
		a.stats[AODVDataDropped].Inc()
		return
	}
	r.expiry = a.n.Kernel.Now() + routeLifetime
	a.stats[AODVDataForwarded].Inc()
	a.n.MAC.Enqueue(fwd, 0)
}

// flushSalvage forwards packets parked for target once a route exists.
func (a *AODV) flushSalvage(target packet.NodeID) {
	list := a.salvage[target]
	if len(list) == 0 {
		return
	}
	delete(a.salvage, target)
	for _, pkt := range list {
		a.salvageData(pkt)
	}
}

// OnSent implements node.Protocol.
func (a *AODV) OnSent(pkt *packet.Packet) {}

// OnUnicastFailed implements node.Protocol: the MAC exhausted its
// retries toward pkt.To — treat the link as broken immediately (faster
// than waiting for hello loss).
func (a *AODV) OnUnicastFailed(pkt *packet.Packet) {
	a.stats[AODVLinkBreaks].Inc()
	delete(a.neighbors, pkt.To)
	a.invalidateVia(pkt.To)
	// Salvage data packets — originated here or being forwarded — by
	// re-routing them through a fresh route (or discovery), keeping
	// their original headers so end-to-end delay stays honest.
	if pkt.Kind == packet.KindData && pkt.Target != a.n.ID {
		a.stats[AODVRediscoveries].Inc()
		a.salvageData(pkt)
	}
}

// salvageData re-sends a data packet over the current route or parks it
// behind a discovery for its target.
func (a *AODV) salvageData(pkt *packet.Packet) {
	if r := a.validRoute(pkt.Target); r != nil {
		a.endRepair(pkt.Target)
		fwd := pkt.Clone()
		fwd.To = r.nextHop
		fwd.UID = 0 // a new frame, not an ARQ duplicate
		a.stats[AODVDataForwarded].Inc()
		a.n.MAC.Enqueue(fwd, 0)
		return
	}
	list := a.salvage[pkt.Target]
	if len(list) >= 16 {
		a.stats[AODVDataDropped].Inc() // bounded salvage buffer
		return
	}
	if _, open := a.repairStart[pkt.Target]; !open {
		a.repairStart[pkt.Target] = a.n.Kernel.Now()
	}
	a.salvage[pkt.Target] = append(list, pkt.Clone())
	// The timeout closure captures the target, not pkt: a delivered
	// packet is lent for the OnDeliver call only.
	target := pkt.Target
	d, started := a.discovering.ensure(target, a.n.Kernel, func() { a.discoveryTimeout(target) })
	if started {
		a.floodRREQ(target, a.ringTTL(0))
		d.timer.Reset(discoveryTimeout)
	}
}
