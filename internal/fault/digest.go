package fault

import (
	"slices"

	"routeless/internal/digest"
)

// DigestState folds the injector's mutable state into h: every crash
// process's phase machine (install order — fixed by the spec list) and the
// set of currently shadowed links in sorted order. Tickers and the
// scheduled restore events are captured by the kernel's pending-event
// digest; the fault counters roll up through the metrics digest.
func (inj *Injector) DigestState(h *digest.Hash) {
	h.Int(len(inj.crashes))
	for _, fp := range inj.crashes {
		fp.DigestState(h)
	}
	h.Int(len(inj.degraded))
	keys := make([][2]int32, 0, len(inj.degraded))
	for k := range inj.degraded {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	})
	for _, k := range keys {
		h.Int64(int64(k[0]))
		h.Int64(int64(k[1]))
	}
}
