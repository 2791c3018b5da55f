package flood

import (
	"slices"

	"routeless/internal/digest"
	"routeless/internal/packet"
)

// sortedFlowKeys returns the map's keys in (Origin, Kind, Seq) order —
// the deterministic iteration every digest over FlowKey-keyed state
// uses.
func sortedFlowKeys[V any](m map[packet.FlowKey]V) []packet.FlowKey {
	keys := make([]packet.FlowKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareFlowKeys)
	return keys
}

func compareFlowKeys(a, b packet.FlowKey) int {
	if a.Origin != b.Origin {
		return int(a.Origin) - int(b.Origin)
	}
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	if a.Seq != b.Seq {
		if a.Seq < b.Seq {
			return -1
		}
		return 1
	}
	return 0
}

// DigestState folds this node's flooding state into h: the origination
// sequence counter, the duplicate cache, and every armed rebroadcast
// (sorted by flow key; the timer itself is captured by the kernel's
// pending-event digest).
func (f *Flooding) DigestState(h *digest.Hash) {
	h.Uint64(uint64(f.seq))
	f.dedup.DigestState(h)
	h.Int(len(f.pending))
	for _, k := range sortedFlowKeys(f.pending) {
		pf := f.pending[k]
		k.DigestTo(h)
		h.Bool(pf.queued)
		// Always true, since the rebroadcast is held by value; the flag
		// stays because it is part of the snapshot digest's layout.
		h.Bool(true)
		h.Uint64(pf.fwd.UID)
		h.Int(pf.fwd.HopCount)
	}
}
