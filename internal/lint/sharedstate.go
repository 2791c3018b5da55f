package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// The sharedstate analyzer keeps concurrent sweep workers independent:
// workers run whole simulations side by side in one process, so every
// piece of mutable state that event handlers can touch must be either
// run-local or explicitly synchronized. This file does two things on
// top of the call graph:
//
//  1. the analyzer flags every write to a non-synchronized
//     package-level variable from code reachable from an event-handler
//     entry point (timer callbacks, scheduled events, delivery
//     handlers) — such a write is invisible coupling between runs;
//  2. BuildShardReport emits the full machine-readable inventory
//     (schema shardsafety/v1): entry points, every package-level
//     variable with its shard-safety class, and the shared singleton
//     types whose methods run inside handlers.
var SharedState = &Analyzer{
	Name: "sharedstate",
	Doc:  "no event-handler-reachable writes to package-level state; sweep workers run concurrently in one process",
	Run:  runSharedState,
}

// sharedSingletonTypes are the process-wide objects (one instance
// spanning all nodes) whose methods constitute cross-node state when
// they run inside event handlers. Each must stay owned by one run (or
// one worker) or be locked.
var sharedSingletonTypes = []string{
	"internal/sim.(Kernel)",
	"internal/sim.(EventPool)",
	"internal/phy.(Channel)",
	"internal/phy.(Pools)",
	"internal/propagation.(SharedRangeCache)",
	"internal/node.(Runtime)",
	"internal/metrics.(Registry)",
	"internal/metrics.(Journal)",
}

// globalInfo is the inventory record of one package-level variable.
type globalInfo struct {
	key  string // pkgpath.name
	name string
	typ  types.Type
	pos  token.Pos
	unit *Unit
}

// handlerReach memoizes the handler-reachable closure.
func (p *Program) handlerReach() map[FuncID]bool {
	if p.handlerReachMemo == nil {
		p.handlerReachMemo = p.HandlerReachable()
	}
	return p.handlerReachMemo
}

// globalInventory indexes every package-level variable declared in the
// program's units, keyed like globalRef.Key. First declaration wins
// (the in-package test unit re-checks primary files).
func (p *Program) globalInventory() map[string]*globalInfo {
	if p.globalInvMemo != nil {
		return p.globalInvMemo
	}
	p.globalInvMemo = map[string]*globalInfo{}
	for _, u := range p.Units {
		if u.Info == nil {
			continue
		}
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						obj := u.Info.Defs[name]
						if obj == nil {
							continue
						}
						key := globalVarKey(obj)
						if key == "" {
							continue
						}
						if _, dup := p.globalInvMemo[key]; dup {
							continue
						}
						p.globalInvMemo[key] = &globalInfo{
							key:  key,
							name: name.Name,
							typ:  obj.Type(),
							pos:  name.Pos(),
							unit: u,
						}
					}
				}
			}
		}
	}
	return p.globalInvMemo
}

// isSyncGuarded reports whether t carries its own synchronization: a
// sync or sync/atomic type. Writes through these are shard-visible but
// race-free, so they classify as "atomic" rather than "mutable".
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
	if p.Prog == nil || !(p.InInternal() || p.InCmd()) {
		return
	}
	prog := p.Prog
	reach := prog.handlerReach()
	inv := prog.globalInventory()
	for _, fid := range prog.IDs {
		n := prog.Funcs[fid]
		if n.Unit != p.unit || !reach[fid] || p.IsTestFile(n.Pos) {
			continue
		}
		for _, g := range n.Globals {
			if !g.Write {
				continue
			}
			if info, ok := inv[g.Key]; ok && isSyncGuarded(info.typ) {
				continue
			}
			via := ""
			if path := prog.EntryPathTo(fid); len(path) > 0 {
				via = " (reached via " + strings.Join(path, " -> ") + ")"
			}
			p.Reportf(g.Pos, "event-handler code writes package-level var %s%s: sweep workers run concurrently in one process, so handler-written package state couples their runs; move it into per-run or per-node state, or guard it with a sync/atomic type",
				g.Key, via)
		}
	}
}

// ShardReport is the machine-readable shard-safety inventory emitted by
// cmd/simlint -json. Schema shardsafety/v1.
type ShardReport struct {
	Schema      string           `json:"schema"`
	EntryPoints []ShardEntry     `json:"entryPoints"`
	Globals     []ShardGlobal    `json:"globals"`
	Singletons  []ShardSingleton `json:"singletons"`
}

// Violations returns one line per global that is classified mutable
// AND written from event-handler context — the combination that
// couples concurrent sweep workers. Unlike the sharedstate diagnostics,
// this reads the raw inventory, so //lint:ignore suppressions cannot
// hide a hazard from callers that treat the report as a hard gate
// (cmd/simlint -audit).
func (r *ShardReport) Violations() []string {
	var out []string
	for _, g := range r.Globals {
		if g.Class == "mutable" && g.HandlerWrites {
			out = append(out, fmt.Sprintf("%s: %s (%s) is mutable and handler-written", g.Pos, g.Var, g.Type))
		}
	}
	return out
}

// ShardEntry is one event-handler root of the call graph.
type ShardEntry struct {
	Func string `json:"func"`
	Kind string `json:"kind"` // schedule | timer | dispatch
	Pos  string `json:"pos"`
}

// ShardGlobal classifies one package-level variable.
//
// Class is "readonly" (no function body writes it — initialized at
// declaration or never), "atomic" (a sync / sync/atomic type: shared
// but race-free), or "mutable" (written by at least one function; a
// sharding hazard when handler-reachable).
type ShardGlobal struct {
	Var           string   `json:"var"`
	Type          string   `json:"type"`
	Pos           string   `json:"pos"`
	Class         string   `json:"class"`
	Writers       []string `json:"writers,omitempty"`
	HandlerWrites bool     `json:"handlerWrites"`
	HandlerReads  bool     `json:"handlerReads"`
	Via           []string `json:"via,omitempty"` // example entry chain to an accessor
}

// ShardSingleton is one shared simulator object whose methods run
// inside event handlers.
type ShardSingleton struct {
	Type    string   `json:"type"`
	Methods []string `json:"methods"`
}

// BuildShardReport computes the full inventory over prog.
func BuildShardReport(prog *Program) *ShardReport {
	rep := &ShardReport{Schema: "shardsafety/v1"}
	for _, ep := range prog.EntryPoints {
		rep.EntryPoints = append(rep.EntryPoints, ShardEntry{
			Func: string(ep.Fn),
			Kind: ep.Kind,
			Pos:  prog.Fset.Position(ep.Pos).String(),
		})
	}

	reach := prog.handlerReach()
	inv := prog.globalInventory()

	// Handler-side accessors per global: who reads, who writes.
	readers := map[string][]FuncID{}
	writersIn := map[string][]FuncID{}
	for _, fid := range prog.IDs {
		if !reach[fid] {
			continue
		}
		n := prog.Funcs[fid]
		for _, g := range n.Globals {
			if g.Write {
				writersIn[g.Key] = append(writersIn[g.Key], fid)
			} else {
				readers[g.Key] = append(readers[g.Key], fid)
			}
		}
	}

	keys := make([]string, 0, len(inv))
	for k := range inv {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, key := range keys {
		info := inv[key]
		writers := slices.Clone(prog.globalWriters[key])
		slices.Sort(writers)
		writers = slices.Compact(writers)
		class := "readonly"
		switch {
		case isSyncGuarded(info.typ):
			class = "atomic"
		case len(writers) > 0:
			class = "mutable"
		}
		g := ShardGlobal{
			Var:           key,
			Type:          typeString(info.typ),
			Pos:           prog.Fset.Position(info.pos).String(),
			Class:         class,
			HandlerWrites: len(writersIn[key]) > 0,
			HandlerReads:  len(readers[key]) > 0,
		}
		for _, w := range writers {
			g.Writers = append(g.Writers, shortID(w))
		}
		// One example chain from an entry point to an accessor, writer
		// preferred: makes every inventory row self-explanatory.
		accessors := writersIn[key]
		if len(accessors) == 0 {
			accessors = readers[key]
		}
		if len(accessors) > 0 {
			g.Via = prog.EntryPathTo(accessors[0])
		}
		rep.Globals = append(rep.Globals, g)
	}

	// Shared singleton types touched from handler context.
	methods := map[string][]string{}
	for _, fid := range prog.IDs {
		if !reach[fid] {
			continue
		}
		s := string(fid)
		close := strings.LastIndex(s, ").")
		if close < 0 {
			continue
		}
		typ, meth := s[:close+1], s[close+2:]
		for _, pat := range sharedSingletonTypes {
			if idHasSuffix(FuncID(typ), pat) {
				methods[typ] = append(methods[typ], meth)
				break
			}
		}
	}
	types_ := make([]string, 0, len(methods))
	for t := range methods {
		types_ = append(types_, t)
	}
	slices.Sort(types_)
	for _, t := range types_ {
		ms := methods[t]
		slices.Sort(ms)
		rep.Singletons = append(rep.Singletons, ShardSingleton{Type: t, Methods: slices.Compact(ms)})
	}

	return rep
}
