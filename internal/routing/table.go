// Package routing implements the paper's §4 protocols: Routeless
// Routing (the contribution — next-hop election by hop-count gradient,
// no stored routes) and an AODV baseline (explicit routes, link breaks
// from link-layer feedback, route error recovery), plus a simplified
// Gradient Routing for the §4.4 comparison.
package routing

import (
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// tableEntry is one row of the active node table: "(1) the identity of
// a target node … and (2) the number of hops from this target node to
// the node owning the table" (§4.1).
type tableEntry struct {
	hops    int
	seq     uint32   // sequence number of the freshest packet observed
	updated sim.Time // last time the stored hop count was set or confirmed
}

// ActiveTable is Routeless Routing's only data structure. Entries are
// refreshed passively from the actual-hop-count field of every
// overheard packet ("data packets and path reply packets always carry
// the most up-to-date information about the distance", §4.2).
//
// Update semantics guard the gradient in both directions:
//   - shorter observations win immediately (within or across sequence
//     numbers) — the first, shortest copy of a flood;
//   - longer observations from newer sequence numbers are accepted only
//     after the stored shorter distance has gone unconfirmed for
//     inflateAfter seconds. Without this damping, every copy that took
//     a redundant longer path would overwrite a still-valid shorter
//     entry (it carries a newer sequence number), the election's
//     lowest-delay band would widen each round, and the gradient would
//     dissolve. With it, entries still grow when the short path truly
//     dies (node failures), just on the damping timescale.
//
// The zero ActiveTable is an empty table.
type ActiveTable struct {
	entries map[packet.NodeID]tableEntry // made on first Observe
}

// inflateAfter is the damping window in seconds (DESIGN §4 decision 2):
// a stored shorter distance must go unconfirmed this long before a
// longer observation replaces it. No experiment varies it.
const inflateAfter = 5

// Observe folds in one overheard packet from origin with the given
// actual hop count and origin sequence number at time now.
func (t *ActiveTable) Observe(origin packet.NodeID, hops int, seq uint32, now sim.Time) {
	if hops <= 0 {
		return
	}
	e, ok := t.entries[origin]
	if !ok {
		if t.entries == nil {
			t.entries = make(map[packet.NodeID]tableEntry)
		}
		t.entries[origin] = tableEntry{hops: hops, seq: seq, updated: now}
		return
	}
	if seq < e.seq {
		return // stale packet, no information
	}
	switch {
	case hops <= e.hops:
		// Shorter or confirming: accept and refresh.
		e.hops, e.seq, e.updated = hops, seq, now
	case seq > e.seq && now-e.updated > inflateAfter:
		// Longer, but the shorter distance has not been confirmed in a
		// while: the short path is likely gone.
		e.hops, e.seq, e.updated = hops, seq, now
	case seq > e.seq:
		// Longer and the short distance is still fresh: keep the hops,
		// advance the sequence horizon.
		e.seq = seq
	default:
		return // a longer copy of the current sequence number
	}
	t.entries[origin] = e
}

// Hops returns the table distance to target, or -1 when unknown — the
// h_table input of the backoff equation.
func (t *ActiveTable) Hops(target packet.NodeID) int {
	if e, ok := t.entries[target]; ok {
		return e.hops
	}
	return -1
}
