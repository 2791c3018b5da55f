package routing

import (
	"routeless/internal/core"
	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// RoutelessConfig parameterizes the protocol. Zero fields take the
// noted defaults. Every field is either set by an experiment (Lambda,
// SignalTieBreak, PathMargin) or one of DESIGN §4's reproduction
// decisions; the fixed parameters are the constants below.
type RoutelessConfig struct {
	// Lambda is the backoff quantum λ of the §4.1 equation; default 50 ms.
	Lambda sim.Time
	// PathMargin bounds every data/reply packet's TTL to the known
	// distance to its target plus this margin. The budget confines
	// election-failure debris to the source–target ellipse: any copy
	// that cannot reach the target within its remaining budget is not
	// worth relaying. Default 2.
	PathMargin int
	// HopSlack is how much a copy's traveled hop count may exceed the
	// receiver's table distance to the packet's origin before the
	// receiver refuses to relay it (detour check); default 1. Higher
	// values tolerate longer detours around failed nodes at the cost
	// of slower suppression of election-failure cascades.
	HopSlack int
	// SignalTieBreak makes the within-band tie-break signal-strength
	// aware (core.GradientSignal) — the metric combination the paper's
	// conclusion proposes — over the signalMinDBm…signalMaxDBm span.
	// Off by default: deterministic far-preference clusters all
	// range-edge candidates at near-zero delay, which *causes* the
	// simultaneous-announcement collisions §2 warns about (measured in
	// the ABL2/ABL4 ablations); the paper's uniform draw spreads them.
	SignalTieBreak bool
	// RedundantAcks sends each acknowledgement twice; more robust to
	// ACK loss but measurably more traffic. With the path budget and
	// gradient damping in place, single ACKs suffice (ablation knob).
	RedundantAcks bool
	// PlainDiscovery disables duplicate-cancellation on discovery
	// forwards. By default a node whose discovery rebroadcast is still
	// pending (or queued) drops it upon overhearing a duplicate — the
	// counter-based suppression of Tseng et al. with C=1, which is what
	// lets Routeless Routing use "much fewer route request packets"
	// than AODV's plain flood (§4.3).
	PlainDiscovery bool
}

func (c RoutelessConfig) withDefaults() RoutelessConfig {
	if c.Lambda == 0 {
		// λ must exceed the suppression latency (next-hop relay or ACK
		// reaching the losers, ≈5–10 ms with queueing) so that nodes on
		// the wrong side of the gradient — whose delay is at least λ —
		// are reliably cancelled before their timers fire (§4.1).
		c.Lambda = 50e-3
	}
	if c.HopSlack == 0 {
		c.HopSlack = 1
	}
	if c.PathMargin == 0 {
		c.PathMargin = 2
	}
	return c
}

// Routeless Routing's fixed parameters.
const (
	// relayTimeout is how long a relayer (acting as arbiter) waits to
	// overhear the next hop before retransmitting. It must exceed
	// worst-case backoff plus MAC queueing under load; a short timeout
	// makes arbiters retransmit into congestion, amplifying it.
	relayTimeout sim.Time = 200e-3
	// maxRelayRetries bounds arbiter retransmissions.
	maxRelayRetries = 2
	// stateTTL is the relay-state garbage-collection age.
	stateTTL sim.Time = 10
	// signalMinDBm/signalMaxDBm span the receive powers SignalTieBreak
	// maps onto the within-band delay: the free-space decode threshold
	// at 250 m and the free-space receive power at 25 m.
	signalMinDBm = -55.1
	signalMaxDBm = -33.2
)

// RoutelessSeries indexes one cell of a node's Routeless Routing counter block.
type RoutelessSeries uint8

// The rr.* counters, in journal order.
const (
	RRDataSent RoutelessSeries = iota
	RRDataDelivered
	RRDiscoveriesSent
	RRDiscoveryForwards
	RRDiscoveryCancelled
	RRDupDiscovery
	RRRepliesSent
	RRRepliesReceived
	RRRelays          // reply/data forwards won by election
	RRRetransmissions // arbiter retransmissions
	RRRelayGiveUps
	RRCancelledByOverhear // backoffs cancelled by a downstream copy
	RRCancelledByAck      // backoffs cancelled by an ACK
	RRArbiterAcks         // ACKs sent after overhearing the next hop
	RRTargetAcks          // ACKs sent as the packet's target
	RRReAcks              // never counted since the detour check; rr.re_acks stays a journal column
	RRStaleDrops          // copies refused by the detour check
	RRAbstains            // elections skipped for lack of a gradient
	RRTTLDrops
	RRDroppedNoRoute // data dropped after discovery gave up
	RRRepairs        // relays recovered after arbiter retransmission
	numRoutelessSeries
)

// routelessTable names the series; it is the only place they are spelled.
var routelessTable = metrics.Table{
	Counters: []string{
		RRDataSent:            "rr.data_sent",
		RRDataDelivered:       "rr.data_delivered",
		RRDiscoveriesSent:     "rr.discoveries_sent",
		RRDiscoveryForwards:   "rr.discovery_forwards",
		RRDiscoveryCancelled:  "rr.discovery_cancelled",
		RRDupDiscovery:        "rr.dup_discovery",
		RRRepliesSent:         "rr.replies_sent",
		RRRepliesReceived:     "rr.replies_received",
		RRRelays:              "rr.relays",
		RRRetransmissions:     "rr.retransmissions",
		RRRelayGiveUps:        "rr.relay_give_ups",
		RRCancelledByOverhear: "rr.cancelled_by_overhear",
		RRCancelledByAck:      "rr.cancelled_by_ack",
		RRArbiterAcks:         "rr.arbiter_acks",
		RRTargetAcks:          "rr.target_acks",
		RRReAcks:              "rr.re_acks",
		RRStaleDrops:          "rr.stale_drops",
		RRAbstains:            "rr.abstains",
		RRTTLDrops:            "rr.ttl_drops",
		RRDroppedNoRoute:      "rr.dropped_no_route",
		RRRepairs:             "rr.repairs",
	},
	Hists: []string{"rr.repair_latency_s"},
}

type relayPhase uint8

const (
	phasePending relayPhase = iota // backoff armed, may be cancelled
	phaseQueued                    // won the election; frame in the MAC queue
	phaseRelayed                   // frame left the air; arbiter duty active
	phaseDone                      // acked, superseded, or given up
)

// relayState is the per-logical-packet election state machine:
// Pending → Queued → Relayed → Done. Cancellation can strike in
// Pending (stop the timer) and in Queued (withdraw the frame from the
// MAC queue) — §2's backoff cancellation covers the whole pre-air path.
type relayState struct {
	phase     relayPhase
	armedHop  int            // hop count of the copy that armed our backoff
	armedFrom packet.NodeID  // transmitter of that copy (our arbiter)
	txHop     int            // hop count we (will) transmit with
	fwd       *packet.Packet // master copy for (re)transmission
	inflight  *packet.Packet // the exact frame handed to the MAC
	timer     *sim.Timer
	retries   int
	reAcks    int
	created   sim.Time

	// repairStart is when the first retransmission for this relay fired;
	// zero while no repair is in progress.
	repairStart sim.Time
}

// discForward tracks one pending discovery rebroadcast so that a
// duplicate overheard in time can cancel it (counter-1 suppression).
type discForward struct {
	timer   *sim.Timer
	fwd     *packet.Packet
	queued  bool
	created sim.Time
}

// Routeless is one node's Routeless Routing instance (§4.1). It keeps
// no routes: every reply/data forwarding step is a local leader
// election with the hop-gradient backoff, the transmitting node acting
// as arbiter for the next hop.
type Routeless struct {
	cfg RoutelessConfig
	n   *node.Node

	table       *ActiveTable
	seq         uint32
	floodDedup  *packet.DedupCache
	consumed    *packet.DedupCache
	relays      map[packet.FlowKey]*relayState
	discPending map[packet.FlowKey]*discForward
	discovering discoverySet

	policy core.BackoffPolicy // hop gradient for reply/data

	sweep *sim.Ticker

	// OnRelay observes every reply/data transmission this node makes
	// (origination, election win, or retransmission) — the Figure 2
	// trace hook.
	OnRelay func(pkt *packet.Packet)

	stats [numRoutelessSeries]metrics.Counter32
	// repairLatency spans a relay's first arbiter retransmission to the
	// evidence that the packet moved again (overheard downstream copy or
	// ACK) — Routeless Routing's route-repair recovery metric.
	repairLatency [1]metrics.Histogram
}

// NewRouteless builds an instance; install with Network.Install.
func NewRouteless(cfg RoutelessConfig) *Routeless {
	cfg = cfg.withDefaults()
	var policy core.BackoffPolicy
	if cfg.SignalTieBreak {
		policy = core.GradientSignal{
			Lambda: cfg.Lambda,
			MinDBm: signalMinDBm, MaxDBm: signalMaxDBm,
			JitterFrac: 0.25,
		}
	} else {
		policy = core.HopGradient{Lambda: cfg.Lambda}
	}
	return &Routeless{
		cfg:         cfg,
		table:       NewActiveTable(),
		floodDedup:  packet.NewDedupCache(8192),
		consumed:    packet.NewDedupCache(8192),
		relays:      make(map[packet.FlowKey]*relayState),
		discPending: make(map[packet.FlowKey]*discForward),
		discovering: make(discoverySet),
		policy:      policy,
	}
}

// Start implements node.Protocol.
func (r *Routeless) Start(n *node.Node) {
	r.n = n
	r.sweep = sim.NewTicker(n.Kernel, 5, r.gc)
	r.sweep.StartAfter(sim.Time(5 + n.Rng.Float64()))
}

// Count returns the current value of one of the node's counters.
func (r *Routeless) Count(s RoutelessSeries) uint64 { return r.stats[s].Value() }

// MetricBlock implements metrics.Source.
func (r *Routeless) MetricBlock() metrics.Block {
	return metrics.Block{Table: &routelessTable, Counters: r.stats[:], Hists: r.repairLatency[:]}
}

// repairDone closes an open repair window on st: the packet provably
// moved again after at least one arbiter retransmission. No-op when no
// repair was in progress.
func (r *Routeless) repairDone(st *relayState) {
	if st.repairStart == 0 {
		return
	}
	r.stats[RRRepairs].Inc()
	r.repairLatency[0].Observe(float64(r.n.Kernel.Now() - st.repairStart))
	st.repairStart = 0
}

// Table exposes the active node table (read-mostly; used by tests and
// experiment instrumentation).
func (r *Routeless) Table() *ActiveTable { return r.table }

// Send implements node.Protocol: originate data toward target,
// discovering a gradient first when none exists.
func (r *Routeless) Send(target packet.NodeID, size int) {
	if size == 0 {
		size = packet.SizeData
	}
	now := r.n.Kernel.Now()
	if target == r.n.ID {
		r.stats[RRDataSent].Inc()
		r.stats[RRDataDelivered].Inc()
		r.n.Deliver(&packet.Packet{Kind: packet.KindData, Origin: r.n.ID, Target: target, Size: size, CreatedAt: now})
		return
	}
	if h := r.table.Hops(target); h >= 0 {
		r.sendData(target, size, now)
		return
	}
	d, started := r.discovering.ensure(target, r.n.Kernel, func() { r.discoveryTimeout(target) })
	if started {
		r.floodDiscovery(target)
		d.timer.Reset(discoveryTimeout)
	}
	d.queue = append(d.queue, pendingData{size: size, created: now})
}

// pathBudget converts a known target distance into a TTL.
func (r *Routeless) pathBudget(h int) int {
	b := h + r.cfg.PathMargin
	if b > packet.HopLimit {
		b = packet.HopLimit
	}
	return b
}

func (r *Routeless) nextSeq() uint32 {
	r.seq++
	return r.seq
}

// sendData originates one data packet; the source plays arbiter for the
// first hop.
func (r *Routeless) sendData(target packet.NodeID, size int, created sim.Time) {
	h := r.table.Hops(target)
	pkt := &packet.Packet{
		Kind: packet.KindData, To: packet.Broadcast,
		Origin: r.n.ID, Target: target, Seq: r.nextSeq(),
		HopCount: 1, ExpectedHops: h - 1,
		TTL: r.pathBudget(h), Size: size, CreatedAt: created,
	}
	r.stats[RRDataSent].Inc()
	r.originate(pkt)
}

// sendReply answers a path discovery (§4.1): expected hop count is the
// table distance to the source minus one.
func (r *Routeless) sendReply(source packet.NodeID) {
	h := r.table.Hops(source)
	if h < 0 {
		return // discovery observation failed somehow; next retry will fix
	}
	pkt := &packet.Packet{
		Kind: packet.KindReply, To: packet.Broadcast,
		Origin: r.n.ID, Target: source, Seq: r.nextSeq(),
		HopCount: 1, ExpectedHops: h - 1,
		TTL: r.pathBudget(h), Size: packet.SizeControl, CreatedAt: r.n.Kernel.Now(),
	}
	r.stats[RRRepliesSent].Inc()
	r.originate(pkt)
}

// originate queues a reply/data packet from its origin; arbiter duty
// for the first hop starts when the frame actually leaves the air
// (OnSent).
func (r *Routeless) originate(pkt *packet.Packet) {
	key := pkt.Key()
	st := &relayState{
		phase:   phaseQueued,
		txHop:   pkt.HopCount,
		fwd:     pkt.Clone(),
		created: r.n.Kernel.Now(),
	}
	st.timer = sim.NewTimer(r.n.Kernel, func() { r.relayTimeout(key) })
	r.relays[key] = st
	r.enqueueRelay(st, 0)
}

// enqueueRelay hands the state's master copy to the MAC.
func (r *Routeless) enqueueRelay(st *relayState, priority float64) {
	st.inflight = st.fwd.Clone()
	if r.OnRelay != nil {
		r.OnRelay(st.inflight)
	}
	r.n.MAC.Enqueue(st.inflight, priority)
}

// floodDiscovery starts (or retries) a counter-1 flood for target.
func (r *Routeless) floodDiscovery(target packet.NodeID) {
	pkt := &packet.Packet{
		Kind: packet.KindDiscovery, To: packet.Broadcast,
		Origin: r.n.ID, Target: target, Seq: r.nextSeq(),
		HopCount: 1, TTL: packet.HopLimit,
		Size: packet.SizeControl, CreatedAt: r.n.Kernel.Now(),
	}
	r.floodDedup.Seen(pkt.Key())
	r.stats[RRDiscoveriesSent].Inc()
	r.n.MAC.Enqueue(pkt, 0)
}

func (r *Routeless) discoveryTimeout(target packet.NodeID) {
	// The reply may have been lost while the gradient was still learned
	// passively (the table observes every overheard packet from the
	// target). If a gradient exists now, the discovery has effectively
	// succeeded: flush the queue through the normal send path instead of
	// re-flooding or mis-counting the data as routeless.
	if r.table.Hops(target) >= 0 {
		for _, pd := range r.discovering.succeed(target) {
			r.sendData(target, pd.size, pd.created)
		}
		return
	}
	d, retry := r.discovering.step(target)
	if d == nil {
		return
	}
	if !retry {
		r.stats[RRDroppedNoRoute].Add(uint32(len(d.queue)))
		return
	}
	r.floodDiscovery(target)
	d.timer.Reset(discoveryTimeout)
}

// OnDeliver implements node.Protocol.
func (r *Routeless) OnDeliver(pkt *packet.Packet, rssiDBm float64) {
	switch pkt.Kind {
	case packet.KindDiscovery:
		r.handleDiscovery(pkt)
	case packet.KindReply, packet.KindData:
		r.handleRelayPacket(pkt, rssiDBm)
	case packet.KindAck:
		r.handleAck(pkt)
	}
}

func (r *Routeless) handleDiscovery(pkt *packet.Packet) {
	now := r.n.Kernel.Now()
	r.table.Observe(pkt.Origin, pkt.HopCount, pkt.Seq, now)
	key := pkt.Key()
	if r.floodDedup.Seen(key) {
		r.stats[RRDupDiscovery].Inc()
		if !r.cfg.PlainDiscovery {
			// Counter-1 suppression: a duplicate overheard before our
			// rebroadcast reaches the air cancels it.
			if df, ok := r.discPending[key]; ok {
				cancelled := false
				if df.queued {
					cancelled = r.n.MAC.Dequeue(df.fwd)
				} else {
					df.timer.Stop()
					cancelled = true
				}
				if cancelled {
					delete(r.discPending, key)
					r.stats[RRDiscoveryCancelled].Inc()
				}
			}
		}
		return
	}
	if pkt.Target == r.n.ID {
		r.sendReply(pkt.Origin)
		return
	}
	if pkt.TTL <= 1 {
		r.stats[RRTTLDrops].Inc()
		return
	}
	backoff := sim.Time(r.n.Rng.Float64()) * discoveryBackoff
	fwd := pkt.Clone()
	fwd.To = packet.Broadcast
	fwd.HopCount++
	fwd.TTL--
	df := &discForward{fwd: fwd, created: now}
	df.timer = sim.NewTimer(r.n.Kernel, func() {
		df.queued = true
		r.stats[RRDiscoveryForwards].Inc()
		r.n.MAC.Enqueue(fwd, float64(backoff))
	})
	r.discPending[key] = df
	df.timer.Reset(backoff)
}

func (r *Routeless) handleRelayPacket(pkt *packet.Packet, rssiDBm float64) {
	now := r.n.Kernel.Now()
	key := pkt.Key()

	// Detour check BEFORE folding the copy into the table: a fresh
	// copy whose traveled distance far exceeds our known shortest
	// distance to its origin is the debris of a failed election (a
	// loser that missed both the winning relay and the ACK and
	// re-spawned the packet). Its actual-hop-count field is circuitous
	// garbage — observing it would overwrite the good gradient entry
	// (the copy carries a newer sequence number), corrupting every
	// later election. Refuse it entirely.
	if r.relays[key] == nil && pkt.Target != r.n.ID {
		if ho := r.table.Hops(pkt.Origin); ho >= 0 && pkt.HopCount > ho+r.cfg.HopSlack {
			r.stats[RRStaleDrops].Inc()
			return
		}
	}
	r.table.Observe(pkt.Origin, pkt.HopCount, pkt.Seq, now)

	if pkt.Target == r.n.ID {
		if !r.consumed.Seen(key) {
			switch pkt.Kind {
			case packet.KindData:
				r.stats[RRDataDelivered].Inc()
				r.n.Deliver(pkt)
			case packet.KindReply:
				r.stats[RRRepliesReceived].Inc()
				r.routeEstablished(pkt.Origin)
			}
		}
		// ACK on every copy: a retransmission means our previous ACK
		// was missed.
		r.stats[RRTargetAcks].Inc()
		r.sendAck(key)
		return
	}

	st := r.relays[key]
	if st == nil {
		r.armRelay(pkt, rssiDBm, key, now)
		return
	}
	switch st.phase {
	case phasePending:
		if pkt.HopCount > st.armedHop ||
			(pkt.HopCount == st.armedHop && pkt.From != st.armedFrom) {
			// Someone at or ahead of our ring relayed this packet: we
			// lost the election (§4.1 cancellation case (i)). An
			// equal-hop copy from the node we armed from is the arbiter
			// retransmitting — then we keep competing; from anyone else
			// it is a sibling's relay carrying the packet onward.
			st.timer.Stop()
			st.phase = phaseDone
			r.stats[RRCancelledByOverhear].Inc()
		}
	case phaseQueued:
		if pkt.HopCount >= st.txHop ||
			(pkt.HopCount == st.armedHop && pkt.From != st.armedFrom) {
			// A node at or beyond our level transmitted while our frame
			// sat in the MAC queue: withdraw it if it has not reached
			// the air yet.
			if r.n.MAC.Dequeue(st.inflight) {
				st.phase = phaseDone
				r.stats[RRCancelledByOverhear].Inc()
				if pkt.HopCount > st.txHop {
					// Only possible for a queued retransmission: our
					// earlier copy did get relayed downstream — finish
					// the arbiter duty with an ACK.
					r.repairDone(st)
					r.stats[RRArbiterAcks].Inc()
					r.sendAck(key)
				}
			}
			// Dequeue failure means the frame is on the air; OnSent
			// will promote us to Relayed and the usual rules apply.
		}
	case phaseRelayed:
		if pkt.HopCount > st.txHop {
			// Our transmission was relayed onward: arbiter duty —
			// acknowledge so nodes that missed the relay stand down.
			st.timer.Stop()
			st.phase = phaseDone
			r.repairDone(st)
			r.stats[RRArbiterAcks].Inc()
			r.sendAck(key)
		}
	case phaseDone:
		// Stale traffic for a settled packet; nothing to do. (Nodes
		// that never saw the packet are protected from joining a
		// runaway copy by the detour check in armRelay.)
	}
}

// armRelay enters the election for a freshly seen reply/data packet.
func (r *Routeless) armRelay(pkt *packet.Packet, rssiDBm float64, key packet.FlowKey, now sim.Time) {
	if pkt.TTL <= 1 {
		r.stats[RRTTLDrops].Inc()
		return
	}
	hops := r.table.Hops(pkt.Target)
	// Budget check: relaying is pointless if the target cannot be
	// reached within the packet's remaining hop budget.
	if hops >= 0 && hops >= pkt.TTL {
		r.stats[RRTTLDrops].Inc()
		return
	}
	backoff, ok := r.policy.Backoff(core.Context{
		Self:         r.n.ID,
		RSSIdBm:      rssiDBm,
		HopsToTarget: hops,
		ExpectedHops: pkt.ExpectedHops,
		Rand:         r.n.Rng,
	})
	if !ok {
		r.stats[RRAbstains].Inc()
		return
	}
	fwd := pkt.Clone()
	fwd.To = packet.Broadcast
	fwd.HopCount++
	fwd.TTL--
	fwd.ExpectedHops = hops - 1
	st := &relayState{
		phase:     phasePending,
		armedHop:  pkt.HopCount,
		armedFrom: pkt.From,
		fwd:       fwd,
		created:   now,
	}
	st.timer = sim.NewTimer(r.n.Kernel, func() { r.relayWon(key, float64(backoff)) })
	r.relays[key] = st
	st.timer.Reset(backoff)
}

// relayWon fires when our backoff expired uncancelled: we are the local
// leader for this hop. Queue the frame; arbiter duty begins when it
// leaves the air.
func (r *Routeless) relayWon(key packet.FlowKey, priority float64) {
	st := r.relays[key]
	if st == nil || st.phase != phasePending {
		return
	}
	st.phase = phaseQueued
	st.txHop = st.fwd.HopCount
	st.timer = sim.NewTimer(r.n.Kernel, func() { r.relayTimeout(key) })
	r.stats[RRRelays].Inc()
	r.enqueueRelay(st, priority)
}

// OnSent implements node.Protocol: when a queued relay frame leaves the
// air, arbiter duty starts (overhear the next hop or retransmit).
func (r *Routeless) OnSent(pkt *packet.Packet) {
	if pkt.Kind != packet.KindReply && pkt.Kind != packet.KindData {
		return
	}
	st := r.relays[pkt.Key()]
	if st == nil || st.phase != phaseQueued || st.inflight != pkt {
		return
	}
	st.phase = phaseRelayed
	st.timer.Reset(relayTimeout)
}

// relayTimeout is the arbiter's "rebroadcast not overheard" path: §4.1
// "If the rebroadcast is not overheard within a certain time, the
// destination node will retransmit the same packet."
func (r *Routeless) relayTimeout(key packet.FlowKey) {
	st := r.relays[key]
	if st == nil || st.phase != phaseRelayed {
		return
	}
	st.retries++
	if st.retries > maxRelayRetries {
		st.phase = phaseDone
		r.stats[RRRelayGiveUps].Inc()
		return
	}
	r.stats[RRRetransmissions].Inc()
	if st.repairStart == 0 {
		st.repairStart = r.n.Kernel.Now()
	}
	st.phase = phaseQueued
	r.enqueueRelay(st, 0)
}

func (r *Routeless) handleAck(pkt *packet.Packet) {
	kind, ok := pkt.Payload.(packet.Kind)
	if !ok {
		return
	}
	key := packet.FlowKey{Origin: pkt.Origin, Kind: kind, Seq: pkt.Seq}
	st := r.relays[key]
	if st == nil {
		// Immunization: we heard the packet was settled before ever
		// seeing a copy of it. Remember that, so a late (possibly
		// circuitous) copy arriving afterwards cannot recruit us.
		r.relays[key] = &relayState{
			phase:   phaseDone,
			created: r.n.Kernel.Now(),
			timer:   sim.NewTimer(r.n.Kernel, func() {}),
		}
		return
	}
	switch st.phase {
	case phasePending:
		// §4.1 cancellation case (ii): an ACK means the packet was
		// relayed (or arrived); stand down.
		st.timer.Stop()
		st.phase = phaseDone
		r.stats[RRCancelledByAck].Inc()
	case phaseQueued:
		if r.n.MAC.Dequeue(st.inflight) {
			st.phase = phaseDone
			r.repairDone(st)
			r.stats[RRCancelledByAck].Inc()
		}
	case phaseRelayed:
		st.timer.Stop()
		st.phase = phaseDone
		r.repairDone(st)
	}
}

func (r *Routeless) sendAck(key packet.FlowKey) {
	// The acknowledgement is sent twice with independent jitter: a
	// single ACK lost to a collision leaves election losers armed, and
	// each escaped loser re-floods the packet — far costlier than one
	// redundant 24-byte frame. Jitter de-synchronizes acknowledgements
	// from neighboring arbiters (they tend to fire on the same
	// overheard relay); negative priority then makes them pre-empt
	// queued relays — suppression must outrun competing backoff timers.
	for _, window := range r.ackWindows() {
		jitter := sim.Time(r.n.Rng.Float64() * window)
		r.n.Kernel.Schedule(jitter, func() {
			if !r.n.Up() {
				return
			}
			r.n.MAC.Enqueue(&packet.Packet{
				Kind: packet.KindAck, To: packet.Broadcast,
				Origin: key.Origin, Seq: key.Seq,
				Payload: key.Kind, Size: packet.SizeAck,
			}, -1)
		})
	}
}

// ackWindows returns the jitter windows for acknowledgement copies.
func (r *Routeless) ackWindows() []float64 {
	if r.cfg.RedundantAcks {
		return []float64{2e-3, 8e-3}
	}
	return []float64{2e-3}
}

// routeEstablished flushes data queued behind a discovery once the path
// reply arrives.
func (r *Routeless) routeEstablished(target packet.NodeID) {
	for _, pd := range r.discovering.succeed(target) {
		r.sendData(target, pd.size, pd.created)
	}
}

// gc drops settled or ancient relay and discovery state.
func (r *Routeless) gc() {
	now := r.n.Kernel.Now()
	for key, st := range r.relays {
		age := now - st.created
		if (st.phase == phaseDone && age > 2) || age > stateTTL {
			st.timer.Stop()
			delete(r.relays, key)
		}
	}
	for key, df := range r.discPending {
		if now-df.created > stateTTL {
			df.timer.Stop()
			delete(r.discPending, key)
		}
	}
}

// OnUnicastFailed implements node.Protocol; Routeless Routing never
// unicasts, so this cannot fire.
func (r *Routeless) OnUnicastFailed(pkt *packet.Packet) {}
