package flood

import (
	"slices"

	"routeless/internal/core"
	"routeless/internal/digest"
)

// DigestState folds this node's flooding state into h: the origination
// sequence counter, the duplicate cache, and every armed rebroadcast
// (sorted by flow key; the timer itself is captured by the kernel's
// pending-event digest). An origination waiting in the MAC is no
// rebroadcast: the MAC's queue digest covers its frame. Two forwards of
// one key, possible only under blind flooding or once the duplicate
// cache has forgotten the key, keep pending's order, newest first.
func (f *Flooding) DigestState(h *digest.Hash) {
	h.Uint64(uint64(f.seq))
	f.dedup.DigestState(h)
	var armed []*pendingForward
	for pf := f.pending; pf != nil; pf = pf.next {
		if pf.Phase != core.Done {
			armed = append(armed, pf)
		}
	}
	slices.SortStableFunc(armed, func(a, b *pendingForward) int { return a.fwd.Key().Compare(b.fwd.Key()) })
	h.Int(len(armed))
	for _, pf := range armed {
		pf.fwd.Key().DigestTo(h)
		h.Bool(pf.Phase == core.Queued)
		h.Uint64(pf.fwd.UID)
		h.Int(pf.fwd.HopCount)
	}
}
