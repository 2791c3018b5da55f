package routing

import (
	"slices"

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
		RRStaleDrops:          "rr.stale_drops",
		RRAbstains:            "rr.abstains",
		RRTTLDrops:            "rr.ttl_drops",
		RRDroppedNoRoute:      "rr.dropped_no_route",
		RRRepairs:             "rr.repairs",
	},
	Hists: []string{"rr.repair_latency_s"},
}

// relayState is one per-packet election state, a core.Contender's
// Pending → Queued → OnAir → Done. A reply/data relay can be cancelled
// in Pending (stop the timer) and in Queued (withdraw the frame from the
// MAC queue) — §2's backoff cancellation covers the whole pre-air path.
// Once the frame is OnAir the same timer runs the arbiter's
// retransmission timeout. A discovery rebroadcast (key.Kind is
// KindDiscovery) is the same bid with counter-1 cancellation; it uses
// only key, fwd and created. An ACK's immunization mark is a state that
// is never armed and keeps a zero fwd. An ACK copy (key.Kind is KindAck)
// is no bid: its timer is the send jitter, and it is listed in order
// but not in relays, since two copies can share a key. Every state's
// fwd is the frame the MAC queues, withdraws and sends. States are
// pooled per node (see newState and gc), and each is its own timer's
// handler.
type relayState struct {
	core.Contender
	r         *Routeless
	key       packet.FlowKey
	armedHop  int           // hop count of the copy that armed our backoff
	armedFrom packet.NodeID // transmitter of that copy (our arbiter)
	txHop     int           // hop count we (will) transmit with
	fwd       packet.Packet // the frame handed to the MAC, every (re)transmission
	retries   int
	created   sim.Time

	// repairStart is when the first retransmission for this relay fired;
	// zero while no repair is in progress.
	repairStart sim.Time
}

// Fire is the state's one timer. An ACK copy's jitter expired: queue
// the ACK. In Pending the backoff expired and we won: a discovery
// forward hands its frame to the MAC, a relay becomes the hop's leader.
// OnAir it is the arbiter's retransmission timeout.
func (st *relayState) Fire() {
	switch {
	case st.key.Kind == packet.KindAck:
		st.r.ackDue(st)
	case st.Phase != core.Pending:
		st.r.relayTimeout(st)
	case st.key.Kind == packet.KindDiscovery:
		st.r.stats[RRDiscoveryForwards].Inc()
		st.r.enqueue(st, float64(st.Backoff))
	default:
		st.r.relayWon(st)
	}
}

// Routeless is one node's Routeless Routing instance (§4.1). It keeps
// no routes: every reply/data forwarding step is a local leader
// election with the hop-gradient backoff, the transmitting node acting
// as arbiter for the next hop.
type Routeless struct {
	cfg RoutelessConfig
	n   *node.Node

	table    ActiveTable
	seq      uint32
	disc     discoveryFlood
	consumed packet.DedupCache
	// relays holds every live per-packet state: reply/data relays,
	// immunization marks and discovery forwards, kept apart by the
	// key's Kind.
	relays map[packet.FlowKey]*relayState

	// order holds the live states in creation order, so gc walks them,
	// and refills free, in an order that does not depend on map
	// iteration.
	order []*relayState
	free  []*relayState

	policy core.BackoffPolicy // hop gradient for reply/data

	sweep *sim.Ticker

	// OnRelay observes every reply/data transmission this node makes
	// (origination, election win, or retransmission) — the Figure 2
	// trace hook. pkt is the relay state's own frame: read it during
	// the call, Clone it to keep it.
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
	// The maps are made on first insert: a node no packet reaches keeps none.
	r := &Routeless{cfg: cfg, policy: policy}
	r.disc.seen.Init(dedupCap)
	r.consumed.Init(dedupCap)
	return r
}

// newState lists a clean state for key, created now, in order, taking
// it off the free list when one is there. Only an empty list allocates
// one; the state is its own timer's handler, so binding the timer
// allocates nothing more.
func (r *Routeless) newState(key packet.FlowKey) *relayState {
	var st *relayState
	if n := len(r.free); n > 0 {
		st = r.free[n-1]
		r.free = r.free[:n-1]
		*st = relayState{Contender: core.Contender{Timer: st.Timer}, r: r}
	} else {
		st = &relayState{r: r}
		st.Init(r.n.Kernel, st)
	}
	st.key, st.created = key, r.n.Kernel.Now()
	r.order = append(r.order, st)
	return st
}

// newRelay is newState registered in relays under key.
func (r *Routeless) newRelay(key packet.FlowKey) *relayState {
	st := r.newState(key)
	if r.relays == nil {
		r.relays = make(map[packet.FlowKey]*relayState)
	}
	r.relays[key] = st
	return st
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
func (r *Routeless) Table() *ActiveTable { return &r.table }

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
	d := r.disc.discover(r, r.n, target)
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

// answerDiscovery answers a path discovery (§4.1) with a reply whose
// expected hop count is the table distance to its source minus one.
func (r *Routeless) answerDiscovery(disc *packet.Packet) {
	h := r.table.Hops(disc.Origin)
	if h < 0 {
		return // discovery observation failed somehow; next retry will fix
	}
	pkt := &packet.Packet{
		Kind: packet.KindReply, To: packet.Broadcast,
		Origin: r.n.ID, Target: disc.Origin, Seq: r.nextSeq(),
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
	st := r.newRelay(pkt.Key())
	st.txHop, st.fwd = pkt.HopCount, *pkt
	r.enqueueRelay(st, 0)
}

// enqueueRelay hands a reply/data state's frame to the MAC through
// enqueue and returns its result. A retransmission resends the same
// frame, so it keeps the UID of the first copy, as a MAC ARQ retry does.
func (r *Routeless) enqueueRelay(st *relayState, priority float64) bool {
	if r.OnRelay != nil {
		r.OnRelay(&st.fwd)
	}
	return r.enqueue(st, priority)
}

// enqueue queues the state's frame at the MAC and returns MAC.Enqueue's
// result. A frame that a full queue refuses was never the MAC's, as in
// flooding: the state ends Done, with no arbiter duty, for gc to
// collect.
func (r *Routeless) enqueue(st *relayState, priority float64) bool {
	st.Phase = core.Queued
	if !r.n.MAC.Enqueue(&st.fwd, priority) {
		st.Phase = core.Done
		return false
	}
	return true
}

// OnDeliver implements node.Protocol.
func (r *Routeless) OnDeliver(pkt *packet.Packet, rssiDBm float64) {
	switch pkt.Kind {
	case packet.KindDiscovery:
		r.table.Observe(pkt.Origin, pkt.HopCount, pkt.Seq, r.n.Kernel.Now())
		if r.disc.receive(r, r.n, pkt) {
			r.stats[RRTTLDrops].Inc()
		}
	case packet.KindReply, packet.KindData:
		r.handleRelayPacket(pkt, rssiDBm)
	case packet.KindAck:
		r.handleAck(pkt)
	}
}

// The discoverer steps of Routeless Routing's path discovery.

func (r *Routeless) flood() (*discoveryFlood, *node.Node) { return &r.disc, r.n }

func (r *Routeless) discoveryFrame(target packet.NodeID, _ bool) *packet.Packet {
	r.stats[RRDiscoveriesSent].Inc()
	return &packet.Packet{
		Kind: packet.KindDiscovery, To: packet.Broadcast,
		Origin: r.n.ID, Target: target, Seq: r.nextSeq(),
		HopCount: 1, TTL: packet.HopLimit,
		Size: packet.SizeControl, CreatedAt: r.n.Kernel.Now(),
	}
}

func (r *Routeless) duplicateDiscovery(pkt *packet.Packet) {
	r.stats[RRDupDiscovery].Inc()
	if r.cfg.PlainDiscovery {
		return
	}
	// Counter-1 suppression: a duplicate overheard before our
	// rebroadcast reaches the air cancels it.
	if st, ok := r.relays[pkt.Key()]; ok && st.Withdraw(r.n.MAC, &st.fwd) {
		r.drop(st)
		r.stats[RRDiscoveryCancelled].Inc()
	}
}

// rebroadcastDiscovery arms a pooled state whose Fire queues fwd at its
// backoff as MAC priority.
func (r *Routeless) rebroadcastDiscovery(fwd packet.Packet, backoff sim.Time) {
	st := r.newRelay(fwd.Key())
	st.fwd = fwd
	st.Arm(backoff)
}

func (r *Routeless) knowsWay(target packet.NodeID) bool { return r.table.Hops(target) >= 0 }

func (r *Routeless) flushParked(target packet.NodeID, queue []pendingData) {
	for _, pd := range queue {
		r.sendData(target, pd.size, pd.created)
	}
}

func (r *Routeless) dropParked(_ packet.NodeID, queue []pendingData) {
	r.stats[RRDroppedNoRoute].Add(uint32(len(queue)))
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
				r.disc.resolve(r, pkt.Origin)
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
		r.armRelay(pkt, rssiDBm, key)
		return
	}
	switch st.Phase {
	case core.Pending:
		if pkt.HopCount > st.armedHop ||
			(pkt.HopCount == st.armedHop && pkt.From != st.armedFrom) {
			// Someone at or ahead of our ring relayed this packet: we
			// lost the election (§4.1 cancellation case (i)). An
			// equal-hop copy from the node we armed from is the arbiter
			// retransmitting — then we keep competing; from anyone else
			// it is a sibling's relay carrying the packet onward.
			st.Stop()
			r.stats[RRCancelledByOverhear].Inc()
		}
	case core.Queued:
		if pkt.HopCount >= st.txHop ||
			(pkt.HopCount == st.armedHop && pkt.From != st.armedFrom) {
			// A node at or beyond our level transmitted while our frame
			// sat in the MAC queue: withdraw it if it has not reached
			// the air yet.
			if st.Withdraw(r.n.MAC, &st.fwd) {
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
			// Withdraw failure means the frame is on the air (a frame
			// the queue refused has already ended the state Done);
			// OnSent will promote us to OnAir and the usual rules apply.
		}
	case core.OnAir:
		if pkt.HopCount > st.txHop {
			// Our transmission was relayed onward: arbiter duty —
			// acknowledge so nodes that missed the relay stand down.
			st.Stop()
			r.repairDone(st)
			r.stats[RRArbiterAcks].Inc()
			r.sendAck(key)
		}
	case core.Done:
		// Stale traffic for a settled packet; nothing to do. (Nodes
		// that never saw the packet are protected from joining a
		// runaway copy by the detour check in armRelay.)
	}
}

// armRelay enters the election for a freshly seen reply/data packet.
func (r *Routeless) armRelay(pkt *packet.Packet, rssiDBm float64, key packet.FlowKey) {
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
	st := r.newRelay(key)
	st.armedHop, st.armedFrom = pkt.HopCount, pkt.From
	st.fwd = *pkt
	st.fwd.To = packet.Broadcast
	st.fwd.HopCount++
	st.fwd.TTL--
	st.fwd.ExpectedHops = hops - 1
	st.Arm(backoff)
}

// relayWon fires when our backoff expired uncancelled: we are the local
// leader for this hop. Queue the frame; arbiter duty begins when it
// leaves the air.
func (r *Routeless) relayWon(st *relayState) {
	st.txHop = st.fwd.HopCount
	r.stats[RRRelays].Inc()
	r.enqueueRelay(st, float64(st.Backoff))
}

// OnSent implements node.Protocol: when a queued relay frame leaves the
// air, arbiter duty starts (overhear the next hop or retransmit); an ACK
// copy that left the air is released. ACK copies are the newest states,
// so the search for one starts at the tail of order; a copy gc already
// collected is not found.
func (r *Routeless) OnSent(pkt *packet.Packet) {
	if pkt.Kind == packet.KindAck {
		for i := len(r.order) - 1; i >= 0; i-- {
			if &r.order[i].fwd == pkt {
				r.dropAt(i)
				return
			}
		}
		return
	}
	if pkt.Kind != packet.KindReply && pkt.Kind != packet.KindData {
		return
	}
	st := r.relays[pkt.Key()]
	if st == nil || st.Phase != core.Queued || &st.fwd != pkt {
		return
	}
	st.Phase = core.OnAir
	st.Timer.Reset(relayTimeout)
}

// relayTimeout is the arbiter's "rebroadcast not overheard" path: §4.1
// "If the rebroadcast is not overheard within a certain time, the
// destination node will retransmit the same packet."
func (r *Routeless) relayTimeout(st *relayState) {
	st.retries++
	if st.retries > maxRelayRetries {
		st.Phase = core.Done
		r.stats[RRRelayGiveUps].Inc()
		return
	}
	r.stats[RRRetransmissions].Inc()
	if st.repairStart == 0 {
		st.repairStart = r.n.Kernel.Now()
	}
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
		// circuitous) copy arriving afterwards cannot recruit us. Its
		// contender is never armed: nothing to stop, and the zero
		// Phase is Pending, so Done is set here.
		r.newRelay(key).Phase = core.Done
		return
	}
	switch st.Phase {
	case core.Pending, core.Queued:
		// §4.1 cancellation case (ii): an ACK means the packet was
		// relayed (or arrived); stand down.
		if st.Withdraw(r.n.MAC, &st.fwd) {
			r.repairDone(st)
			r.stats[RRCancelledByAck].Inc()
		}
	case core.OnAir:
		st.Stop()
		r.repairDone(st)
	}
}

func (r *Routeless) sendAck(key packet.FlowKey) {
	// One acknowledgement per window of ackWindows: one by default, two
	// with independent jitter under RedundantAcks, since a single ACK
	// lost to a collision leaves election losers armed and each escaped
	// loser re-floods the packet. Jitter de-synchronizes
	// acknowledgements from neighboring arbiters (they tend to fire on
	// the same overheard relay); negative priority then makes them
	// pre-empt queued relays — suppression must outrun competing
	// backoff timers. Each copy is a state of its own, its frame built
	// by value and its timer armed with the jitter (see ackDue).
	for _, window := range r.ackWindows() {
		jitter := sim.Time(r.n.Rng.Float64() * window)
		ack := packet.Packet{
			Kind: packet.KindAck, To: packet.Broadcast,
			Origin: key.Origin, Seq: key.Seq,
			Payload: key.Kind, Size: packet.SizeAck,
		}
		st := r.newState(ack.Key())
		st.fwd = ack
		st.Arm(jitter)
	}
}

// ackDue queues an ACK copy whose jitter expired, ahead of every relay.
// A copy the node is down for, or the MAC refuses, is released at once;
// a queued one at OnSent.
func (r *Routeless) ackDue(st *relayState) {
	if !r.n.Up() || !r.enqueue(st, -1) {
		r.drop(st)
	}
}

// ackWindows returns the jitter windows for acknowledgement copies.
func (r *Routeless) ackWindows() []float64 {
	if r.cfg.RedundantAcks {
		return []float64{2e-3, 8e-3}
	}
	return []float64{2e-3}
}

// gc drops settled or ancient states, oldest first, and puts them on the
// free list. A state whose fwd the MAC still holds (a frame queued at a
// paused MAC) is left to the Go collector instead: reusing it would
// rewrite that frame.
func (r *Routeless) gc() {
	now := r.n.Kernel.Now()
	r.order = slices.DeleteFunc(r.order, func(st *relayState) bool {
		age := now - st.created
		if expired := (st.Phase == core.Done && age > 2) || age > stateTTL; !expired {
			return false
		}
		held := r.n.MAC.Holds(&st.fwd)
		st.Stop()
		if r.relays[st.key] == st {
			delete(r.relays, st.key)
		}
		if !held {
			r.free = append(r.free, st)
		}
		return true
	})
}

// drop ends a state whose frame is out of the MAC — a discovery forward
// Withdraw cancelled, an ACK copy that was sent, refused or never
// queued — and frees it. It is usually among the newest.
func (r *Routeless) drop(st *relayState) {
	i := len(r.order) - 1
	for r.order[i] != st {
		i--
	}
	r.dropAt(i)
}

// dropAt is drop of the state at order[i].
func (r *Routeless) dropAt(i int) {
	st := r.order[i]
	if r.relays[st.key] == st {
		delete(r.relays, st.key)
	}
	r.order = slices.Delete(r.order, i, i+1)
	r.free = append(r.free, st)
}

// OnUnicastFailed implements node.Protocol; Routeless Routing never
// unicasts, so this cannot fire.
func (r *Routeless) OnUnicastFailed(pkt *packet.Packet) {}
