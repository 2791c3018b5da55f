package routing

import (
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// pendingData is one data packet parked behind a route/gradient
// discovery, keeping its original creation time so end-to-end delay
// includes discovery latency.
type pendingData struct {
	size    int
	created sim.Time
}

// discovery is the per-target discovery state: the retry timer, the
// retry count, and the data queued until the route (or gradient)
// exists.
type discovery struct {
	timer   *sim.Timer
	retries int
	queue   []pendingData
}

// The three discovery floods — Routeless Routing's path discovery,
// AODV's RREQ flood and Gradient Routing's setup flood — share one
// retry policy and one rebroadcast backoff.
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

// discoverySet is the shared per-target discovery bookkeeping used by
// all three routing protocols. The three implementations used to drift
// on exactly the life-cycle corners this type centralizes: stopping the
// timer on success (so no stale timeout can fire afterwards), removing
// the entry exactly once, and handing the queued data back to the
// caller for flushing or drop accounting.
type discoverySet map[packet.NodeID]*discovery

// ensure returns the discovery for target, creating it on first use
// with a timer bound to onTimeout. started reports whether this call
// created it — the caller then emits the first flood and arms the
// timer.
func (s discoverySet) ensure(target packet.NodeID, k *sim.Kernel, onTimeout func()) (d *discovery, started bool) {
	if d, ok := s[target]; ok {
		return d, false
	}
	d = &discovery{timer: sim.NewTimer(k, onTimeout)}
	s[target] = d
	return d, true
}

// pending reports whether a discovery for target is in progress.
func (s discoverySet) pending(target packet.NodeID) bool {
	_, ok := s[target]
	return ok
}

// succeed completes target's discovery: the timer is stopped — a stale
// timeout firing after success was one of the audited accounting bugs —
// the entry is removed, and the data queued behind the discovery is
// returned for flushing through the normal send path.
func (s discoverySet) succeed(target packet.NodeID) []pendingData {
	d, ok := s[target]
	if !ok {
		return nil
	}
	d.timer.Stop()
	delete(s, target)
	return d.queue
}

// step advances target's discovery at a timeout firing and reports
// whether another retry should run. retry == false with d != nil means
// the discovery gave up: the entry is removed (timer defensively
// stopped) and d.queue holds the never-sent data for drop accounting.
// d == nil means no discovery was pending — a stale firing with nothing
// to do.
func (s discoverySet) step(target packet.NodeID) (d *discovery, retry bool) {
	d, ok := s[target]
	if !ok {
		return nil, false
	}
	d.retries++
	if d.retries > maxDiscoveryRetries {
		d.timer.Stop()
		delete(s, target)
		return d, false
	}
	return d, true
}
