package packet

import (
	"cmp"
	"slices"

	"routeless/internal/digest"
)

// DigestTo folds the key into h. Shared by every layer that keys
// per-flow state on FlowKey, so all digests spell the key identically.
func (k FlowKey) DigestTo(h *digest.Hash) {
	h.Int64(int64(k.Origin))
	h.Byte(byte(k.Kind))
	h.Uint64(uint64(k.Seq))
}

// SortedFlowKeys returns the map's keys in (Origin, Kind, Seq) order —
// the deterministic iteration every digest over FlowKey-keyed state
// uses.
func SortedFlowKeys[V any](m map[FlowKey]V) []FlowKey {
	keys := make([]FlowKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b FlowKey) int {
		if c := cmp.Compare(a.Origin, b.Origin); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	return keys
}

// DigestState folds the cache's behavioral state into h: capacity,
// population, and every remembered key in insertion order. The order
// slice is the deterministic iteration surface — hashing the map would
// require a sort, and the FIFO order itself is state (it decides which
// key the next insert evicts).
func (c *DedupCache) DigestState(h *digest.Hash) {
	if c == nil {
		h.Bool(false)
		return
	}
	h.Bool(true)
	h.Int(c.cap)
	h.Int(len(c.order))
	for _, k := range c.order {
		k.DigestTo(h)
	}
}
