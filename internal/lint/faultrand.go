package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// FaultRand keeps the fault plane's one doorway to randomness: fault
// functions may not accept a raw *math/rand.Rand parameter. Every fault
// stream comes from the network's tracker through internal/rng labels
// (Injector.stream), and a constructor or installer that takes a
// caller-supplied generator reopens the door to call-order-dependent,
// seed-unstable fault schedules. Streams built inside the fault plane
// are globalrand's to judge.
var FaultRand = &Analyzer{
	Name: "faultrand",
	Doc:  "fault-plane functions may not take a raw *rand.Rand; fault streams come from Injector.stream",
	Run:  runFaultRand,
}

// inFaultPkg reports whether the unit is the fault plane proper (a
// package named fault under internal/).
func inFaultPkg(p *Pass) bool {
	return p.InInternal() &&
		(strings.HasSuffix(p.Path, "/fault") || strings.Contains(p.Path, "/fault/"))
}

func runFaultRand(p *Pass) {
	if !inFaultPkg(p) {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Type.Params == nil {
				continue
			}
			for _, field := range fd.Type.Params.List {
				if isRandPointer(p.TypeOf(field.Type)) {
					p.Reportf(field.Pos(), "%s takes a raw *rand.Rand; fault streams must derive from the network seed (Injector.stream)",
						fd.Name.Name)
				}
			}
		}
	}
}

// isRandPointer reports whether t is *math/rand.Rand (either flavor).
func isRandPointer(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Rand" && obj.Pkg() != nil && randPackages[obj.Pkg().Path()]
}
