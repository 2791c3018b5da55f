package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// randPackages are the math/rand flavors whose package-level
// convenience functions draw from a process-global, seed-unstable
// source.
var randPackages = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// rawRandCtors are the package-level functions that build a generator
// from a caller-chosen seed (both flavors). NewZipf is absent: it
// wraps a *rand.Rand it is handed and builds no stream of its own.
var rawRandCtors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// GlobalRand enforces that every random stream is built by
// internal/rng, so every draw is a function of the master seed and
// every stream a run draws from can be tracked (nw.RNG, whose states
// the snapshot's rng word hashes in creation order). It is syntactic
// and has three parts:
//
//   - everywhere: no package-level math/rand functions (rand.Float64,
//     rand.Intn, rand.Seed, ...) — draws from the global source depend
//     on process-wide call order, and rand.Seed mutates shared state;
//   - constructor home: outside internal/rng, non-test code under
//     internal/ and cmd/ may not call a raw constructor (rand.New,
//     rand.NewSource, v2 New/NewPCG/NewChaCha8), whatever the seed — a
//     stream built over rng.Derive is still one the tracker never sees;
//   - in the same scope, no package-level *rand.Rand or Source
//     variable: a process-shared stream couples every consumer's draw
//     order.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "forbid process-global math/rand, and raw stream constructors or package-level streams outside internal/rng; build streams with internal/rng (nw.RNG in a run)",
	Run:  runGlobalRand,
}

func pathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return len(path) > len(suffix) &&
		path[len(path)-len(suffix)-1] == '/' &&
		path[len(path)-len(suffix):] == suffix
}

func runGlobalRand(p *Pass) {
	homeless := (p.InInternal() || p.InCmd()) && !pathHasSuffix(p.Path, "internal/rng")
	for _, f := range p.Files {
		ctorBanned := homeless && !p.IsTestFile(f.Pos())
		if ctorBanned {
			checkStreamDecls(p, f)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && ctorBanned {
				sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if name := randFunc(p, sel); rawRandCtors[name] {
					// Outermost constructor only: rand.New(rand.NewSource(s))
					// is one stream.
					p.Reportf(call.Pos(), "raw rand.%s builds a stream outside internal/rng, whatever its seed: nothing tracks it, so the snapshot cannot see its draws; build streams with internal/rng (nw.RNG in a run)", name)
					return false
				}
				return true
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := randFunc(p, sel)
			if name == "" || rawRandCtors[name] || name == "NewZipf" {
				return true // types, vars, and constructors are fine here
			}
			p.Reportf(sel.Pos(), "package-level rand.%s draws from the process-global source; draw from a stream built by internal/rng (nw.RNG in a run)", name)
			return true
		})
	}
}

// randFunc returns the name of the package-level math/rand function
// (either flavor) sel denotes, or "" when sel is anything else.
func randFunc(p *Pass, sel *ast.SelectorExpr) string {
	if sel == nil || !randPackages[p.PkgNameOf(sel)] {
		return ""
	}
	if _, ok := p.Info.Uses[sel.Sel].(*types.Func); !ok {
		return ""
	}
	return sel.Sel.Name
}

// checkStreamDecls flags package-level *rand.Rand / Source variables.
func checkStreamDecls(p *Pass, f *ast.File) {
	if p.Info == nil {
		return
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if obj := p.Info.Defs[name]; obj != nil && globalVarKey(obj) != "" && isRandValueType(obj.Type()) {
					p.Reportf(name.Pos(), "package-level %s %s is a process-shared stream: draw order couples every consumer; build per-consumer streams with internal/rng",
						typeString(obj.Type()), name.Name)
				}
			}
		}
	}
}

// isRandValueType reports whether t is *rand.Rand or a rand Source.
func isRandValueType(t types.Type) bool {
	if t == nil {
		return false
	}
	if isRandPointer(t) {
		return true
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Pkg() != nil && randPackages[o.Pkg().Path()] &&
		strings.HasPrefix(o.Name(), "Source")
}
