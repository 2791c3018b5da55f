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

func (f *discoveryFlood) digestPending(h *digest.Hash) {
	h.Int(len(f.pending))
	for _, id := range sortedNodeKeys(f.pending) {
		d := f.pending[id]
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
// sequence counter, the active table, both dedup caches, every
// per-packet state (relays, immunization marks and discovery forwards,
// in flow-key order), and the per-target discovery bookkeeping. Timers
// are captured by the kernel's pending-event digest.
func (r *Routeless) DigestState(h *digest.Hash) {
	h.Uint64(uint64(r.seq))
	r.table.DigestState(h)
	r.disc.seen.DigestState(h)
	r.consumed.DigestState(h)

	h.Int(len(r.relays))
	for _, k := range packet.SortedFlowKeys(r.relays) {
		st := r.relays[k]
		k.DigestTo(h)
		h.Byte(byte(st.Phase))
		h.Int(st.armedHop)
		h.Int64(int64(st.armedFrom))
		h.Int(st.txHop)
		h.Int(st.retries)
		h.Float64(float64(st.created))
		h.Float64(float64(st.repairStart))
		digestPkt(h, &st.fwd)
	}

	r.disc.digestPending(h)
}

// DigestState folds one node's AODV state into h: sequence and RREQ-id
// counters, the routing table (sorted by destination), both dedup
// caches, the salvage queues, repair timestamps, and discovery
// bookkeeping.
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

	a.disc.seen.DigestState(h)
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

	a.disc.digestPending(h)
}

// DigestState folds one node's gradient-routing state into h: the
// sequence counter, the hop-gradient table, all three dedup caches,
// repair timestamps, and discovery bookkeeping.
func (g *Gradient) DigestState(h *digest.Hash) {
	h.Uint64(uint64(g.seq))
	g.table.DigestState(h)
	g.disc.seen.DigestState(h)
	g.fwdDedup.DigestState(h)
	g.consumed.DigestState(h)
	digestRepairStarts(h, g.repairStart)
	g.disc.digestPending(h)
}
