package routing

import (
	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// The three discovery floods — Routeless Routing's path discovery,
// AODV's RREQ flood and Gradient Routing's setup flood — are one flood:
// one duplicate cache, one receive decision, one retry policy and one
// rebroadcast backoff (DESIGN §4 lists how they differ).
const (
	// discoveryTimeout is how long a source waits for a reply before
	// re-flooding.
	discoveryTimeout sim.Time = 2
	// maxDiscoveryRetries bounds re-floods; the data queued behind a
	// discovery is dropped once they are spent.
	maxDiscoveryRetries = 3
	// discoveryBackoff is the upper bound of the uniform delay before a
	// node rebroadcasts a discovery packet.
	discoveryBackoff sim.Time = 10e-3
)

// dedupCap bounds each of a node's duplicate caches in all three
// protocols — discovery floods seen, packets forwarded and packets
// consumed — so every node forgets a key only after this many newer
// ones, whatever the protocol.
const dedupCap = 8192

// discoverer is a protocol as its discovery flood sees it: the steps in
// which Routeless Routing, AODV and Gradient Routing differ. Everything
// else — the order of the receive decision, the backoff draw, the frame
// one hop on, the retry loop — is discoveryFlood's.
type discoverer interface {
	// flood returns the protocol's discovery flood and its node.
	flood() (*discoveryFlood, *node.Node)
	// discoveryFrame builds and counts a new discovery frame for target:
	// its kind, sequence number and payload. retry marks a re-flood.
	discoveryFrame(target packet.NodeID, retry bool) *packet.Packet
	// duplicateDiscovery handles a copy of a flood already seen.
	duplicateDiscovery(pkt *packet.Packet)
	// answerDiscovery answers a flood at its target.
	answerDiscovery(pkt *packet.Packet)
	// rebroadcastDiscovery sends fwd, the copy one hop on, after backoff.
	rebroadcastDiscovery(fwd packet.Packet, backoff sim.Time)
	// knowsWay reports whether the protocol can send to target now.
	knowsWay(target packet.NodeID) bool
	// flushParked sends the data parked behind target's discovery once
	// it succeeded; queue is nil when none was pending.
	flushParked(target packet.NodeID, queue []pendingData)
	// dropParked accounts for the data parked behind target's discovery
	// when it gave up.
	dropParked(target packet.NodeID, queue []pendingData)
}

// discoveryFlood is one node's discovery flood: the duplicate cache of
// every flood it has seen or started, and, by target, the discoveries
// it started that have not ended yet (made on first insert: a node that
// never originates keeps none). Its owner holds it by value and passes
// itself and its node to each step.
type discoveryFlood struct {
	seen    packet.DedupCache
	pending map[packet.NodeID]*discovery
}

// pendingData is one data packet parked behind a route/gradient
// discovery, keeping its original creation time so end-to-end delay
// includes discovery latency.
type pendingData struct {
	size    int
	created sim.Time
}

// discovery is the per-target discovery state: the retry timer, the
// retry count, and the data queued until the route (or gradient)
// exists. It is its timer's handler, so arming a discovery binds no
// closure.
type discovery struct {
	timer   sim.Timer
	owner   discoverer
	target  packet.NodeID
	retries int
	queue   []pendingData
}

// originate sends a discovery frame from its source: marked seen, so
// the source never rebroadcasts its own flood, and queued at priority 0.
func (f *discoveryFlood) originate(n *node.Node, pkt *packet.Packet) {
	f.seen.Seen(pkt.Key())
	n.MAC.Enqueue(pkt, 0)
}

// receive is the receive decision for a discovery copy the protocol has
// already observed: a duplicate, then the target, then a spent hop
// budget end it; any other copy goes one hop on after a uniform backoff
// over discoveryBackoff. It reports whether the hop budget was spent,
// for the protocol's own count.
func (f *discoveryFlood) receive(p discoverer, n *node.Node, pkt *packet.Packet) (spent bool) {
	switch {
	case f.seen.Seen(pkt.Key()):
		p.duplicateDiscovery(pkt)
	case pkt.Target == n.ID:
		p.answerDiscovery(pkt)
	case pkt.TTL <= 1:
		return true
	default:
		backoff := sim.Time(n.Rng.Float64()) * discoveryBackoff
		fwd := *pkt
		fwd.To = packet.Broadcast
		fwd.HopCount++
		fwd.TTL--
		p.rebroadcastDiscovery(fwd, backoff)
	}
	return false
}

// discover returns target's pending discovery, starting one when none
// is pending: the first flood, then the retry timer. The caller parks
// its data in the returned discovery's queue.
func (f *discoveryFlood) discover(p discoverer, n *node.Node, target packet.NodeID) *discovery {
	if d, ok := f.pending[target]; ok {
		return d
	}
	if f.pending == nil {
		f.pending = make(map[packet.NodeID]*discovery)
	}
	d := &discovery{owner: p, target: target}
	sim.InitTimer(&d.timer, n.Kernel, d)
	f.pending[target] = d
	f.originate(n, p.discoveryFrame(target, false))
	d.timer.Reset(discoveryTimeout)
	return d
}

// resolve ends target's discovery, which succeeded: its timer is
// stopped, so no stale timeout fires afterwards, it leaves the pending
// set, and the protocol flushes the data parked behind it.
func (f *discoveryFlood) resolve(p discoverer, target packet.NodeID) {
	var queue []pendingData
	if d, ok := f.pending[target]; ok {
		d.timer.Stop()
		delete(f.pending, target)
		queue = d.queue
	}
	p.flushParked(target, queue)
}

// Fire is the retry timer's expiry, one turn of the retry loop. A way
// to the target learned passively — from overheard traffic although no
// reply reached the source — is success: the parked data is flushed
// rather than re-flooded or dropped next to a usable route. Otherwise
// the flood is sent again, until maxDiscoveryRetries re-floods are
// spent and the discovery gives up, dropping its data.
func (d *discovery) Fire() {
	p := d.owner
	f, n := p.flood()
	if p.knowsWay(d.target) {
		f.resolve(p, d.target)
		return
	}
	if d.retries++; d.retries > maxDiscoveryRetries {
		delete(f.pending, d.target)
		p.dropParked(d.target, d.queue)
		return
	}
	f.originate(n, p.discoveryFrame(d.target, true))
	d.timer.Reset(discoveryTimeout)
}

// forwardLater hands fwd to n's MAC at priority after delay and counts
// it in sent then: the deferred forward of AODV's RREQ rebroadcast and
// of Gradient Routing's discovery, reply and data forwards.
func forwardLater(n *node.Node, fwd packet.Packet, delay sim.Time, priority float64, sent *metrics.Counter32) {
	n.Kernel.Schedule(delay, func() {
		sent.Inc()
		n.MAC.Enqueue(&fwd, priority)
	})
}
