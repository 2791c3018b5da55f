package routing

import (
	"slices"

	"routeless/internal/digest"
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// sortedNodeKeys is the deterministic iteration surface for the
// NodeID-keyed maps in this package's digests; FlowKey maps go through
// packet.SortedFlowKeys.
func sortedNodeKeys[V any](m map[packet.NodeID]V) []packet.NodeID {
	keys := make([]packet.NodeID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func digestPkt(h *digest.Hash, p *packet.Packet) {
	if p == nil {
		h.Bool(false)
		return
	}
	h.Bool(true)
	h.Uint64(p.UID)
	h.Int64(int64(p.Origin))
	h.Int64(int64(p.Target))
	h.Byte(byte(p.Kind))
	h.Uint64(uint64(p.Seq))
	h.Int(p.HopCount)
	h.Int(p.ExpectedHops)
	h.Int(p.TTL)
	h.Int(p.Size)
	h.Float64(float64(p.CreatedAt))
}

// DigestState folds the active hop-count table into h in node order.
func (t *ActiveTable) DigestState(h *digest.Hash) {
	h.Int(len(t.entries))
	for _, id := range sortedNodeKeys(t.entries) {
		e := t.entries[id]
		h.Int64(int64(id))
		h.Int(e.hops)
		h.Uint64(uint64(e.seq))
		h.Float64(float64(e.updated))
	}
}

func (s discoverySet) digestState(h *digest.Hash) {
	h.Int(len(s))
	for _, id := range sortedNodeKeys(s) {
		d := s[id]
		h.Int64(int64(id))
		h.Int(d.retries)
		h.Int(len(d.queue))
		for _, pd := range d.queue {
			h.Int(pd.size)
			h.Float64(float64(pd.created))
		}
	}
}

func digestRepairStarts(h *digest.Hash, m map[packet.NodeID]sim.Time) {
	h.Int(len(m))
	for _, id := range sortedNodeKeys(m) {
		h.Int64(int64(id))
		h.Float64(float64(m[id]))
	}
}

// DigestState folds one node's Routeless Routing state into h: the
// sequence counter, the active table, both dedup caches, every relay
// election state machine (sorted by flow key), the pending discovery
// rebroadcasts, and the per-target discovery bookkeeping. Timers are
// captured by the kernel's pending-event digest.
func (r *Routeless) DigestState(h *digest.Hash) {
	h.Uint64(uint64(r.seq))
	r.table.DigestState(h)
	r.floodDedup.DigestState(h)
	r.consumed.DigestState(h)

	h.Int(len(r.relays))
	for _, k := range packet.SortedFlowKeys(r.relays) {
		rs := r.relays[k]
		k.DigestTo(h)
		h.Byte(byte(rs.phase))
		h.Int(rs.armedHop)
		h.Int64(int64(rs.armedFrom))
		h.Int(rs.txHop)
		h.Int(rs.retries)
		h.Int(rs.reAcks)
		h.Float64(float64(rs.created))
		h.Float64(float64(rs.repairStart))
		digestPkt(h, rs.fwd)
		digestPkt(h, rs.inflight)
	}

	h.Int(len(r.discPending))
	for _, k := range packet.SortedFlowKeys(r.discPending) {
		df := r.discPending[k]
		k.DigestTo(h)
		h.Bool(df.queued)
		h.Float64(float64(df.created))
		digestPkt(h, df.fwd)
	}

	r.discovering.digestState(h)
}

// DigestState folds one node's AODV state into h: sequence and RREQ-id
// counters, the routing table (sorted by destination), neighbor
// last-heard times, both dedup caches, the salvage queues, repair
// timestamps, and discovery bookkeeping.
func (a *AODV) DigestState(h *digest.Hash) {
	h.Uint64(uint64(a.seqNo))
	h.Uint64(uint64(a.rreqID))

	h.Int(len(a.routes))
	for _, id := range sortedNodeKeys(a.routes) {
		rt := a.routes[id]
		h.Int64(int64(id))
		h.Int64(int64(rt.nextHop))
		h.Int(rt.hops)
		h.Uint64(uint64(rt.seq))
		h.Float64(float64(rt.expiry))
	}

	h.Int(len(a.neighbors))
	for _, id := range sortedNodeKeys(a.neighbors) {
		h.Int64(int64(id))
		h.Float64(float64(a.neighbors[id]))
	}

	a.rreqSeen.DigestState(h)
	a.consumed.DigestState(h)

	h.Int(len(a.salvage))
	for _, id := range sortedNodeKeys(a.salvage) {
		h.Int64(int64(id))
		h.Int(len(a.salvage[id]))
		for _, p := range a.salvage[id] {
			digestPkt(h, p)
		}
	}
	digestRepairStarts(h, a.repairStart)

	a.discovering.digestState(h)
}

// DigestState folds one node's gradient-routing state into h: the
// sequence counter, the hop-gradient table, all three dedup caches,
// repair timestamps, and discovery bookkeeping.
func (g *Gradient) DigestState(h *digest.Hash) {
	h.Uint64(uint64(g.seq))
	g.table.DigestState(h)
	g.floodDedup.DigestState(h)
	g.fwdDedup.DigestState(h)
	g.consumed.DigestState(h)
	digestRepairStarts(h, g.repairStart)
	g.discovering.digestState(h)
}
