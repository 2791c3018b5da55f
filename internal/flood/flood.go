// Package flood implements the paper's flooding family (§3) as
// network-layer protocols over internal/node:
//
//   - Blind flooding: every reception is reforwarded (TTL-bounded) —
//     the strawman "most basic form".
//   - Counter-1 flooding: each node rebroadcasts a packet exactly once
//     (sequence-number dedup) after a uniformly random backoff — the
//     paper's baseline.
//   - SSAF (Signal Strength Aware Flooding): identical to counter-1
//     except the backoff is derived from the received signal strength,
//     so nodes far from the previous hop rebroadcast first. The relay
//     choice is a local leader election with the signal-strength
//     metric; the end of the packet transmission is the implicit
//     synchronization point.
//   - SSAF-C (ablation): SSAF plus cancellation — a pending rebroadcast
//     is dropped when a duplicate is overheard during the backoff,
//     trading delivery redundancy for fewer transmissions.
//
// The variant is fully determined by Config: the backoff policy (a
// core.BackoffPolicy), the Cancel flag, and the Blind flag.
package flood

import (
	"routeless/internal/core"
	"routeless/internal/geo"
	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// Config selects the flooding variant.
type Config struct {
	// Policy derives the rebroadcast backoff; core.Uniform reproduces
	// counter-1, core.SignalStrength reproduces SSAF.
	Policy core.BackoffPolicy
	// Cancel drops a pending rebroadcast when a duplicate of the same
	// packet is overheard during the backoff (the SSAF-C ablation).
	Cancel bool
	// Blind disables duplicate suppression entirely; TTL is the only
	// brake. For the strawman variant and tests.
	Blind bool
	// TTL bounds forwarding; default packet.HopLimit.
	TTL int
	// Locator, when set, supplies true node positions so policies can
	// use Context.DistanceToSender (location-based flooding). Without
	// it the distance is reported as unavailable (-1).
	Locator func(id packet.NodeID) geo.Point
}

// dedupCap bounds each node's sequence-number memory.
const dedupCap = 4096

// Counter1Config returns the paper's baseline: dedup flooding with a
// uniformly random backoff over [0, maxBackoff).
func Counter1Config(maxBackoff sim.Time) Config {
	return Config{Policy: core.Uniform{Max: maxBackoff}}
}

// SSAFConfig returns Signal Strength Aware Flooding with the given λ
// and the RSSI span [minDBm, maxDBm] mapped onto [0, λ).
func SSAFConfig(lambda sim.Time, minDBm, maxDBm float64) Config {
	return Config{Policy: core.SignalStrength{
		Lambda: lambda, MinDBm: minDBm, MaxDBm: maxDBm, JitterFrac: 0.1,
	}}
}

// LocationConfig returns location-based flooding — the idealized scheme
// SSAF approximates without position hardware (§3). locator supplies
// true node positions.
func LocationConfig(lambda sim.Time, rangeM float64, locator func(id packet.NodeID) geo.Point) Config {
	return Config{
		Policy:  core.LocationAware{Lambda: lambda, Range: rangeM, JitterFrac: 0.1},
		Locator: locator,
	}
}

// Series indexes one cell of a node's flooding counter block.
type Series uint8

// The flood.* counters, in journal order.
const (
	Originated Series = iota // packets this node sourced
	Forwards                 // rebroadcasts enqueued to the MAC
	Duplicates               // copies suppressed by dedup
	Cancelled                // pending rebroadcasts cancelled (Cancel variant)
	Delivered                // packets consumed as destination
	TTLDrops                 // copies dropped for exhausted TTL
	numSeries
)

// table names the series; it is the only place they are spelled.
var table = metrics.Table{Counters: []string{
	Originated: "flood.originated",
	Forwards:   "flood.forwards",
	Duplicates: "flood.duplicates",
	Cancelled:  "flood.cancelled",
	Delivered:  "flood.delivered",
	TTLDrops:   "flood.ttl_drops",
}}

// population is one network's flooding: the Config every node's
// instance reads and a LIFO free list of released pendingForwards,
// each bound to that network's kernel. Install makes one per network,
// so neither is ever shared between networks (sweep runs networks
// concurrently, and a pooled timer belongs to one kernel).
type population struct {
	Config
	free []*pendingForward
}

// Flooding is one node's instance of the protocol.
type Flooding struct {
	// cfg is the network's population (see Install); its Config is
	// never written after Install.
	cfg   *population
	n     *node.Node
	seq   uint32
	dedup packet.DedupCache
	// pending lists the node's forwards, newest first, linked through
	// their next fields: an armed rebroadcast from the draw of the
	// backoff, an origination from Send, until the MAC lets go of the
	// frame: at OnSent, at a successful Withdraw (the Cancel variant
	// strikes while the backoff timer runs or while the frame waits in
	// the MAC queue, core.Contender.Withdraw), or when MAC.Enqueue
	// refuses it.
	pending *pendingForward

	stats [numSeries]metrics.Counter32
}

// pendingForward is one frame the node hands the MAC: an armed
// rebroadcast, the node's election bid and the rebroadcast held by
// value (the MAC queues &pf.fwd), or an origination, which is no bid and
// stays Done. pendingForwards are never copied; they come from the
// population's free list (see newForward) and go back to it at release.
type pendingForward struct {
	core.Contender
	f    *Flooding
	next *pendingForward // in f.pending
	fwd  packet.Packet
}

// Fire is the backoff expiry: hand the rebroadcast to the MAC. A frame
// the full queue refuses was never the MAC's, so it is released here.
func (pf *pendingForward) Fire() {
	pf.Phase = core.Queued
	if !pf.f.transmit(&pf.fwd, float64(pf.Backoff)) {
		pf.f.release(pf)
	}
}

// Install gives every node of nw a flooding instance of cfg, in node
// order, through nw.Install. The instances share one population: one
// copy of cfg, with a zero TTL set to packet.HopLimit, and one free
// list of forwards.
func Install(nw *node.Network, cfg Config) {
	if cfg.Policy == nil && !cfg.Blind {
		panic("flood: Config.Policy required")
	}
	if cfg.TTL == 0 {
		cfg.TTL = packet.HopLimit
	}
	pop := &population{Config: cfg}
	nw.Install(func(*node.Node) node.Protocol {
		f := &Flooding{cfg: pop}
		f.dedup.Init(dedupCap)
		return f
	})
}

// Start implements node.Protocol.
func (f *Flooding) Start(n *node.Node) { f.n = n }

// Count returns the current value of one of the node's counters.
func (f *Flooding) Count(s Series) uint64 { return f.stats[s].Value() }

// MetricBlock implements metrics.Source.
func (f *Flooding) MetricBlock() metrics.Block {
	return metrics.Block{Table: &table, Counters: f.stats[:]}
}

// Send implements node.Protocol: originate a flooded data packet. Its
// frame is a forward from the pool, released like a rebroadcast's; it is
// no bid, so it stays Done and an overheard duplicate never withdraws
// it.
func (f *Flooding) Send(target packet.NodeID, size int) {
	f.seq++
	f.stats[Originated].Inc()
	pf := f.newForward(packet.Packet{
		Kind: packet.KindFlood, To: packet.Broadcast,
		Origin: f.n.ID, Target: target, Seq: f.seq,
		HopCount: 1, TTL: f.cfg.TTL, Size: size,
		CreatedAt: f.n.Kernel.Now(),
	})
	pf.Phase = core.Done
	f.dedup.Seen(pf.fwd.Key()) // never forward our own packet back
	if !f.n.MAC.Enqueue(&pf.fwd, 0) {
		f.release(pf)
	}
}

// OnDeliver implements node.Protocol.
func (f *Flooding) OnDeliver(pkt *packet.Packet, rssiDBm float64) {
	if pkt.Kind != packet.KindFlood {
		return
	}
	if f.cfg.Blind {
		f.handleBlind(pkt, rssiDBm)
		return
	}
	key := pkt.Key()
	if f.dedup.Seen(key) {
		f.stats[Duplicates].Inc()
		if f.cfg.Cancel {
			if pf := f.find(key); pf != nil && pf.Withdraw(f.n.MAC, &pf.fwd) {
				f.release(pf)
				f.stats[Cancelled].Inc()
			}
		}
		return
	}
	if pkt.Target == f.n.ID {
		f.stats[Delivered].Inc()
		f.n.Deliver(pkt)
		// The destination still participates in the flood: other
		// receivers may sit behind it.
	}
	if pkt.TTL <= 1 {
		f.stats[TTLDrops].Inc()
		return
	}
	f.armForward(pkt, rssiDBm)
}

// handleBlind rebroadcasts every copy after a uniform backoff of up
// to 5 ms; its forward is pooled and released like any other.
func (f *Flooding) handleBlind(pkt *packet.Packet, rssiDBm float64) {
	if pkt.Target == f.n.ID {
		f.stats[Delivered].Inc()
		f.n.Deliver(pkt)
	}
	if pkt.TTL <= 1 {
		f.stats[TTLDrops].Inc()
		return
	}
	backoff := sim.Time(f.n.Rng.Float64()) * 5e-3
	f.newForward(forwardOf(pkt)).Arm(backoff)
}

// armForward schedules the §2 election step: backoff from the policy,
// then rebroadcast — unless cancelled first.
func (f *Flooding) armForward(pkt *packet.Packet, rssiDBm float64) {
	ctx := core.Context{
		Self:             f.n.ID,
		RSSIdBm:          rssiDBm,
		DistanceToSender: -1,
		Rand:             f.n.Rng,
	}
	if f.cfg.Locator != nil {
		ctx.DistanceToSender = f.cfg.Locator(f.n.ID).Dist(f.cfg.Locator(pkt.From))
	}
	backoff, ok := f.cfg.Policy.Backoff(ctx)
	if !ok {
		return
	}
	f.newForward(forwardOf(pkt)).Arm(backoff)
}

// newForward lists a forward for frame fwd at the head of pending. The
// forward comes off the population's free list, rewritten whole except
// its timer; only an empty list allocates one, and the forward is its
// own timer's handler, so binding the timer allocates nothing more.
func (f *Flooding) newForward(fwd packet.Packet) *pendingForward {
	var pf *pendingForward
	if n := len(f.cfg.free); n > 0 {
		pf = f.cfg.free[n-1]
		f.cfg.free = f.cfg.free[:n-1]
		*pf = pendingForward{Contender: core.Contender{Timer: pf.Timer}, f: f, fwd: fwd}
	} else {
		pf = &pendingForward{f: f, fwd: fwd}
		pf.Init(f.n.Kernel, pf)
	}
	pf.next = f.pending
	f.pending = pf
	return pf
}

// find returns the newest pending forward for key, or nil.
func (f *Flooding) find(key packet.FlowKey) *pendingForward {
	for pf := f.pending; pf != nil; pf = pf.next {
		if pf.fwd.Key() == key {
			return pf
		}
	}
	return nil
}

// forwardOf returns the rebroadcast of a received pkt: one hop further,
// one TTL less.
func forwardOf(pkt *packet.Packet) packet.Packet {
	fwd := *pkt
	fwd.To = packet.Broadcast
	fwd.HopCount++
	fwd.TTL--
	return fwd
}

// transmit hands a rebroadcast to the MAC and reports whether the MAC
// took it.
func (f *Flooding) transmit(fwd *packet.Packet, priority float64) bool {
	f.stats[Forwards].Inc()
	return f.n.MAC.Enqueue(fwd, priority)
}

// OnSent implements node.Protocol: the frame has left the air and the
// MAC has let go of it, so its forward is released.
func (f *Flooding) OnSent(pkt *packet.Packet) {
	if pkt.Kind != packet.KindFlood {
		return
	}
	for pf := f.pending; pf != nil; pf = pf.next {
		if &pf.fwd == pkt {
			f.release(pf)
			return
		}
	}
}

// release ends a forward whose frame the MAC has let go of (sent,
// withdrawn or refused): it leaves pending and goes back on the free
// list. Nothing else returns a forward, so a frame the MAC still holds
// is never rewritten.
func (f *Flooding) release(pf *pendingForward) {
	for p := &f.pending; *p != nil; p = &(*p).next {
		if *p == pf {
			*p = pf.next
			break
		}
	}
	pf.next = nil
	f.cfg.free = append(f.cfg.free, pf)
}

// OnUnicastFailed implements node.Protocol; flooding never unicasts.
func (f *Flooding) OnUnicastFailed(pkt *packet.Packet) {}
