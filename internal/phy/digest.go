package phy

import (
	"slices"

	"routeless/internal/digest"
)

// digestSignal folds one in-air signal into h. A signal's identity is
// its frame UID (assigned deterministically from the channel's
// counter at transmit time) plus the receive-side parameters that decide
// decode and interference outcomes.
func digestSignal(h *digest.Hash, s *signal) {
	if s == nil {
		h.Bool(false)
		return
	}
	h.Bool(true)
	var uid uint64
	if s.frame != nil {
		uid = s.frame.pkt.UID
	}
	h.Uint64(uid)
	h.Float64(s.powerDBm)
	h.Float64(float64(s.end))
	h.Bool(s.tracked)
	h.Bool(s.aborted)
}

// DigestState folds this radio's receive-side machine into h: the
// carrier-sense flags, the frame being decoded, every signal currently
// on its air, and the live-transmission bookkeeping. The inAir and
// txLive slices are hashed in storage order — appends happen in event
// order, which is deterministic per run.
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
	h.Int(len(r.txLive))
	for _, s := range r.txLive {
		digestSignal(h, s)
	}
}

// DigestState folds the channel's mutable run state into h: the
// struct-of-arrays per-node scalars (transceiver state, live transmit
// power, energy meters), the lazily built link-cache validity bits, the
// fault plane's link offsets, and the scheduling counters (UID cursor,
// pending delivery count, cache-residency size).
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
}
