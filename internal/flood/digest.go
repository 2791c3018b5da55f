package flood

import (
	"slices"

	"routeless/internal/core"
	"routeless/internal/digest"
	"routeless/internal/packet"
)

// DigestState folds this node's flooding state into h: the origination
// sequence counter, the duplicate cache, and every armed rebroadcast
// (sorted by flow key; the timer itself is captured by the kernel's
// pending-event digest). An origination waiting in the MAC is no
// rebroadcast: the MAC's queue digest covers its frame.
func (f *Flooding) DigestState(h *digest.Hash) {
	h.Uint64(uint64(f.seq))
	f.dedup.DigestState(h)
	keys := slices.DeleteFunc(packet.SortedFlowKeys(f.pending), func(k packet.FlowKey) bool {
		return f.pending[k].Phase == core.Done
	})
	h.Int(len(keys))
	for _, k := range keys {
		pf := f.pending[k]
		k.DigestTo(h)
		h.Bool(pf.Phase == core.Queued)
		h.Uint64(pf.fwd.UID)
		h.Int(pf.fwd.HopCount)
	}
}
