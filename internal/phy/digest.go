package phy

import (
	"slices"

	"routeless/internal/digest"
)

// digestSignal folds one signal into h: its receiver, both edge keys
// (the leading key's sequence number is unique, so it is the signal's
// identity) and the receive-side parameters that decide decode and
// interference outcomes.
func digestSignal(h *digest.Hash, s *signal) {
	if s == nil {
		h.Bool(false)
		return
	}
	h.Bool(true)
	h.Int64(int64(s.rcv))
	h.Float64(float64(s.lead.At))
	h.Uint64(s.lead.Seq)
	h.Float64(float64(s.trail.At))
	h.Uint64(s.trail.Seq)
	h.Float64(s.powerDBm)
	h.Bool(s.tracked)
	h.Bool(s.aborted)
}

// digestTransmission folds one frame on the air into h: the frame's
// UID, where both cursors stand, and every signal — the edges that are
// yet to fire exist nowhere else, the kernel holds only each cursor's
// next key.
func digestTransmission(h *digest.Hash, t *transmission) {
	if t == nil {
		h.Bool(false)
		return
	}
	h.Bool(true)
	h.Uint64(t.frame.pkt.UID)
	h.Int(t.lead)
	h.Int(t.trail)
	h.Bool(t.armed)
	h.Int(len(t.signals))
	for i := range t.signals {
		digestSignal(h, &t.signals[i])
	}
}

// DigestState folds this radio's receive-side machine into h: the
// carrier-sense flags, the frame being decoded, every signal currently
// on its air, and the transmission it has on the air. inAir is hashed
// in storage order — appends happen in event order, which is
// deterministic per run.
func (r *Radio) DigestState(h *digest.Hash) {
	h.Byte(byte(r.channel.states[r.id]))
	h.Bool(r.busy)
	h.Bool(r.rxCorrupt)
	h.Float64(float64(r.txEnd))
	digestSignal(h, r.rx)
	h.Int(len(r.inAir))
	for _, s := range r.inAir {
		digestSignal(h, s)
	}
	digestTransmission(h, r.txLive)
}

// DigestState folds the channel's mutable run state into h: the
// struct-of-arrays per-node scalars (transceiver state, live transmit
// power, energy meters), the lazily built link-cache validity bits, the
// fault plane's link offsets, the scheduling counters (UID cursor,
// pending delivery count, cache-residency size), and every transmission
// in flight, in launch order.
// The offsets map is iterated in sorted key order; everything else is
// slice-indexed. Radios are digested separately by the per-node walk.
func (c *Channel) DigestState(h *digest.Hash) {
	h.Int(len(c.radios))
	for i := range c.radios {
		h.Byte(byte(c.states[i]))
		h.Float64(c.txPow[i])
		e := &c.energies[i]
		h.Float64(float64(e.last))
		h.Byte(byte(e.state))
		h.Float64(e.joules)
		for _, j := range e.byState {
			h.Float64(j)
		}
		h.Bool(c.linkValid[i])
	}

	h.Int(len(c.offsets))
	keys := make([]linkKey, 0, len(c.offsets))
	for k := range c.offsets {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b linkKey) int {
		if a.from != b.from {
			return int(a.from) - int(b.from)
		}
		return int(a.to) - int(b.to)
	})
	for _, k := range keys {
		h.Int64(int64(k.from))
		h.Int64(int64(k.to))
		h.Float64(c.offsets[k])
	}

	h.Uint64(c.uid)
	h.Int(c.pendingStarts)
	h.Int(len(c.cached) - c.cachedHead)

	h.Int(len(c.inFlight))
	for _, t := range c.inFlight {
		digestTransmission(h, t)
	}
}
