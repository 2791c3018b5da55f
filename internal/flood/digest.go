package flood

import (
	"routeless/internal/digest"
	"routeless/internal/packet"
)

// DigestState folds this node's flooding state into h: the origination
// sequence counter, the duplicate cache, and every armed rebroadcast
// (sorted by flow key; the timer itself is captured by the kernel's
// pending-event digest).
func (f *Flooding) DigestState(h *digest.Hash) {
	h.Uint64(uint64(f.seq))
	f.dedup.DigestState(h)
	h.Int(len(f.pending))
	for _, k := range packet.SortedFlowKeys(f.pending) {
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
