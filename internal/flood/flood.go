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

// Flooding is one node's instance of the protocol.
type Flooding struct {
	// cfg is shared across the population (see New); never written
	// after the first New on it.
	cfg   *Config
	n     *node.Node
	seq   uint32
	dedup packet.DedupCache
	// pending maps logical packets to their armed rebroadcasts, used
	// by the Cancel variant: cancellation can strike while the backoff
	// timer runs or while the frame waits in the MAC queue.
	pending map[packet.FlowKey]*pendingForward

	// OnForward, if set, observes every rebroadcast (for tracing).
	OnForward func(pkt *packet.Packet)

	stats [numSeries]metrics.Counter32
}

// pendingForward is one armed rebroadcast. The backoff timer and the
// rebroadcast itself are held by value (sim.InitTimer; the MAC queues
// &pf.fwd), so arming costs one object, not a Timer, a closure and a
// packet beside it; pendingForwards are never copied.
type pendingForward struct {
	f       *Flooding
	timer   sim.Timer
	fwd     packet.Packet
	backoff sim.Time
	queued  bool
}

// fire is the backoff expiry: hand the rebroadcast to the MAC.
func (pf *pendingForward) fire() {
	pf.queued = true
	if !pf.f.cfg.Cancel {
		delete(pf.f.pending, pf.fwd.Key())
	}
	pf.f.transmit(&pf.fwd, float64(pf.backoff))
}

// New builds a flooding instance; install it with Network.Install. cfg
// is retained, not copied — every node's instance reads the same Config,
// which is 40 bytes of identical bytes per node otherwise — and New
// fills in zero-valued defaults in place, so callers must not mutate
// it after the first New.
func New(cfg *Config) *Flooding {
	f := &Flooding{}
	Init(f, cfg)
	return f
}

// Init initializes f in place — the arena alternative to New for
// mega-scale populations that lay their Flooding instances out in one
// contiguous slice. Same contract as New: cfg is retained and shared.
func Init(f *Flooding, cfg *Config) {
	if cfg.Policy == nil && !cfg.Blind {
		panic("flood: Config.Policy required")
	}
	if cfg.TTL == 0 {
		cfg.TTL = packet.HopLimit
	}
	// pending is lazily allocated by armForward: only the Cancel
	// variant ever reads it, and at mega scale an eager empty map per
	// node is measurable arena weight.
	*f = Flooding{cfg: cfg}
	f.dedup.Init(dedupCap)
}

// Start implements node.Protocol.
func (f *Flooding) Start(n *node.Node) { f.n = n }

// Count returns the current value of one of the node's counters.
func (f *Flooding) Count(s Series) uint64 { return f.stats[s].Value() }

// MetricBlock implements metrics.Source.
func (f *Flooding) MetricBlock() metrics.Block {
	return metrics.Block{Table: &table, Counters: f.stats[:]}
}

// Send implements node.Protocol: originate a flooded data packet.
func (f *Flooding) Send(target packet.NodeID, size int) {
	f.seq++
	f.stats[Originated].Inc()
	pkt := &packet.Packet{
		Kind: packet.KindFlood, To: packet.Broadcast,
		Origin: f.n.ID, Target: target, Seq: f.seq,
		HopCount: 1, TTL: f.cfg.TTL, Size: size,
		CreatedAt: f.n.Kernel.Now(),
	}
	f.dedup.Seen(pkt.Key()) // never forward our own packet back
	f.n.MAC.Enqueue(pkt, 0)
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
			if pf, ok := f.pending[key]; ok {
				cancelled := false
				if pf.queued {
					cancelled = f.n.MAC.Dequeue(&pf.fwd)
				} else {
					pf.timer.Stop()
					cancelled = true
				}
				if cancelled {
					delete(f.pending, key)
					f.stats[Cancelled].Inc()
				}
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
	fwd := forwardOf(pkt)
	f.n.Kernel.Schedule(backoff, func() { f.transmit(&fwd, float64(backoff)) })
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
	pf := &pendingForward{f: f, fwd: forwardOf(pkt), backoff: backoff}
	sim.InitTimer(&pf.timer, f.n.Kernel, pf.fire)
	if f.pending == nil {
		f.pending = make(map[packet.FlowKey]*pendingForward)
	}
	f.pending[pkt.Key()] = pf
	pf.timer.Reset(backoff)
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

func (f *Flooding) transmit(fwd *packet.Packet, priority float64) {
	f.stats[Forwards].Inc()
	if f.OnForward != nil {
		f.OnForward(fwd)
	}
	f.n.MAC.Enqueue(fwd, priority)
}

// OnSent implements node.Protocol: once a Cancel-variant frame is on
// the air it can no longer be withdrawn, so its tracking entry is
// released.
func (f *Flooding) OnSent(pkt *packet.Packet) {
	if pkt.Kind != packet.KindFlood || !f.cfg.Cancel {
		return
	}
	if pf, ok := f.pending[pkt.Key()]; ok && &pf.fwd == pkt {
		delete(f.pending, pkt.Key())
	}
}

// OnUnicastFailed implements node.Protocol; flooding never unicasts.
func (f *Flooding) OnUnicastFailed(pkt *packet.Packet) {}
