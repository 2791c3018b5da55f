package lint

import (
	"go/types"
	"strings"
)

// SharedState keeps concurrent sweep workers independent: workers run
// whole simulations side by side in one process, so every piece of
// mutable state that event handlers can touch must be either run-local
// or explicitly synchronized. The analyzer flags every write to a
// package-level variable that is not of a sync or sync/atomic type from
// code reachable from an event-handler entry point (timer callbacks,
// scheduled events, delivery handlers) — such a write is invisible
// coupling between runs.
//
// It is the one shard-safety gate: it judges every loaded unit, test
// files included, and no //lint:ignore directive, named or "*", can
// waive its findings (see suppressed).
var SharedState = &Analyzer{
	Name: "sharedstate",
	Doc:  "no event-handler-reachable writes to package-level state; sweep workers run concurrently in one process (cannot be waived)",
	Run:  runSharedState,
}

// handlerReach memoizes the handler-reachable closure.
func (p *Program) handlerReach() map[FuncID]bool {
	if p.handlerReachMemo == nil {
		p.handlerReachMemo = p.HandlerReachable()
	}
	return p.handlerReachMemo
}

// isSyncGuarded reports whether t carries its own synchronization: a
// sync or sync/atomic type. Writes through these are shard-visible but
// race-free.
func isSyncGuarded(t types.Type) bool {
	switch tt := t.(type) {
	case *types.Pointer:
		return isSyncGuarded(tt.Elem())
	case *types.Named:
		if pkg := tt.Obj().Pkg(); pkg != nil {
			path := pkg.Path()
			return path == "sync" || path == "sync/atomic"
		}
	}
	return false
}

func runSharedState(p *Pass) {
	prog := p.Prog
	reach := prog.handlerReach()
	for _, fid := range prog.IDs {
		n := prog.Funcs[fid]
		if n.Unit != p.unit || !reach[fid] {
			continue
		}
		for _, w := range n.Writes {
			if w.Guarded {
				continue
			}
			via := ""
			if path := prog.EntryPathTo(fid); len(path) > 0 {
				via = " (reached via " + strings.Join(path, " -> ") + ")"
			}
			p.Reportf(w.Pos, "event-handler code writes package-level var %s%s: sweep workers run concurrently in one process, so handler-written package state couples their runs; move it into per-run or per-node state, or guard it with a sync/atomic type",
				w.Key, via)
		}
	}
}
