package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// This file builds the module-wide call graph that turns the per-file
// syntactic rules into flow-aware ones. A Program holds every loaded
// unit plus one FuncNode per function body (declared functions,
// methods, and closures), with resolved static call edges between them.
//
// Nodes are keyed by FuncID — a stable string of the form
//
//	<pkgpath>.<Name>            for functions
//	<pkgpath>.(<Recv>).<Name>   for methods
//	closure@<file>:<line>:<col> for function literals
//
// rather than by *types.Func identity, because each unit is
// type-checked independently: the object a caller resolves for an
// imported function is not pointer-identical to the object created when
// the defining unit was checked, but both render the same FuncID.
//
// Known blind spots, by construction (documented in DESIGN.md §6):
// calls through reflection, calls through non-trivial function values
// (a func stored in a struct field or map), and interface dynamic
// dispatch are not resolved to bodies. Interface dispatch is bridged
// for the simulator's handler interfaces by treating every concrete
// method with a known handler name (OnReceive, OnDeliver, OnSent,
// OnUnicastFailed) as an entry point in its own right, and every Fire()
// method — what implementing sim.Handler takes — as the event it is.

// FuncID identifies one function across all units of a Program.
type FuncID string

// Call is one outgoing edge: a call expression inside a function body.
type Call struct {
	Pos    token.Pos
	Callee FuncID // "" when the callee could not be resolved statically
	Name   string // callee name as written, for heuristics and messages
	// FuncArgs lists function values passed as arguments (closures,
	// method values, named functions): candidates for later invocation
	// by the callee, and — when the callee is a scheduler — event
	// handlers.
	FuncArgs []FuncID
}

// globalWrite is one assignment to a package-level variable from inside
// a function body.
type globalWrite struct {
	Key     string // pkgpath.varname
	Pos     token.Pos
	Guarded bool // a sync or sync/atomic type: shared but race-free
}

// FuncNode is one analyzed function body.
type FuncNode struct {
	ID   FuncID
	Unit *Unit
	Decl *ast.FuncDecl // nil for closures
	Lit  *ast.FuncLit  // nil for declared functions
	Pos  token.Pos

	Calls  []Call
	Writes []globalWrite
	// passed lists function values this body hands to other calls or
	// stores; conservatively treated as reachable once this node is.
	passed []FuncID
	// sendsOnChannel records a raw channel send in the body (a packet
	// movement the name heuristics cannot see).
	sendsOnChannel bool
}

// Name renders a short human name for diagnostics.
func (n *FuncNode) Name() string {
	if n.Decl != nil {
		return n.Decl.Name.Name
	}
	return "func literal"
}

// EntryPoint is one place event-handler code enters the call graph: a
// callback handed to the kernel scheduler or a timer, a concrete
// implementation of a delivery-handler interface method, or a
// sim.Handler's Fire method.
type EntryPoint struct {
	Fn   FuncID
	Kind string // "schedule", "timer", or "dispatch"
	Pos  token.Pos
}

// Program is the whole-module view the flow-aware analyzers share.
type Program struct {
	Fset  *token.FileSet
	Units []*Unit
	Funcs map[FuncID]*FuncNode
	IDs   []FuncID // sorted; the deterministic iteration order

	EntryPoints []EntryPoint

	nodeOf map[ast.Node]*FuncNode // FuncDecl/FuncLit → node

	// lazy analysis memos (see taint.go).
	sinkMemo   map[FuncID]sinkSet
	sinkActive map[FuncID]bool
	mapRetMemo map[FuncID]int8
	mapRetBusy map[FuncID]bool

	// lazy handler-reachable closure (see sharedstate.go).
	handlerReachMemo map[FuncID]bool
}

// schedulerEntryPoints maps call-target ID suffixes to the argument
// index holding the event callback and the entry-point kind.
var schedulerEntryPoints = []struct {
	suffix string
	arg    int
	kind   string
}{
	{"internal/sim.(Kernel).Schedule", 1, "schedule"},
	{"internal/sim.(Kernel).At", 1, "schedule"},
	{"internal/sim.(Kernel).After", 1, "schedule"},
	{"internal/sim.(Kernel).AtCursor", 1, "schedule"},
	{"internal/sim.NewTimer", 1, "timer"},
	{"internal/sim.InitTimer", 2, "timer"},
	{"internal/core.(Contender).Init", 1, "timer"},
}

// isHandlerFire reports whether fd is a Fire method taking and returning
// nothing: the method set of sim.Handler, so the kernel dispatches to it
// through an interface no static edge resolves.
func isHandlerFire(fd *ast.FuncDecl) bool {
	return fd.Recv != nil && fd.Name.Name == "Fire" &&
		fd.Type.Params.NumFields() == 0 && fd.Type.Results.NumFields() == 0
}

// handlerMethodNames are the delivery-interface methods (phy.Listener,
// mac.Handler) whose concrete implementations run inside events even
// though the dispatching call is invisible to static resolution.
var handlerMethodNames = map[string]bool{
	"OnReceive":       true, // phy.Listener
	"OnDeliver":       true, // mac.Handler
	"OnSent":          true,
	"OnUnicastFailed": true,
}

// idHasSuffix reports whether id ends in pattern on a path-segment
// boundary: "routeless/internal/sim.(Kernel).At" matches
// "internal/sim.(Kernel).At" but "myinternal/sim.(Kernel).At" does not.
func idHasSuffix(id FuncID, pattern string) bool {
	s := string(id)
	if !strings.HasSuffix(s, pattern) {
		return false
	}
	if len(s) == len(pattern) {
		return true
	}
	return s[len(s)-len(pattern)-1] == '/'
}

// BuildProgram indexes every function body of units and resolves the
// static call graph between them.
func BuildProgram(units []*Unit) *Program {
	p := &Program{
		Units:      units,
		Funcs:      map[FuncID]*FuncNode{},
		nodeOf:     map[ast.Node]*FuncNode{},
		sinkMemo:   map[FuncID]sinkSet{},
		sinkActive: map[FuncID]bool{},
		mapRetMemo: map[FuncID]int8{},
		mapRetBusy: map[FuncID]bool{},
	}
	if len(units) > 0 {
		p.Fset = units[0].Fset
	}
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				node := &FuncNode{ID: p.declID(u, fd), Unit: u, Decl: fd, Pos: fd.Pos()}
				p.addNode(node)
				p.scanBody(node, fd.Body)
			}
		}
	}
	for id := range p.Funcs {
		p.IDs = append(p.IDs, id)
	}
	slices.Sort(p.IDs)
	p.findEntryPoints()
	return p
}

func (p *Program) addNode(n *FuncNode) {
	// Duplicate IDs can occur when the in-package test unit re-checks
	// the primary files; first writer wins so positions stay stable.
	if _, ok := p.Funcs[n.ID]; !ok {
		p.Funcs[n.ID] = n
	}
	if n.Decl != nil {
		p.nodeOf[n.Decl] = n
	} else {
		p.nodeOf[n.Lit] = n
	}
}

// NodeFor returns the FuncNode built for a FuncDecl or FuncLit, or nil.
func (p *Program) NodeFor(n ast.Node) *FuncNode {
	if p == nil {
		return nil
	}
	return p.nodeOf[n]
}

// declID derives the FuncID of a declared function.
func (p *Program) declID(u *Unit, fd *ast.FuncDecl) FuncID {
	if u.Info != nil {
		if fn, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
			return funcObjID(fn)
		}
	}
	// Degraded type info: fall back on source text.
	recv := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		recv = "(" + exprText(fd.Recv.List[0].Type) + ")."
	}
	return FuncID(u.Path + "." + recv + fd.Name.Name)
}

// funcObjID renders the stable ID of a resolved function object.
func funcObjID(fn *types.Func) FuncID {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		name := "?"
		switch tt := t.(type) {
		case *types.Named:
			name = tt.Obj().Name()
		case *types.Alias:
			name = tt.Obj().Name()
		}
		return FuncID(pkg + ".(" + name + ")." + fn.Name())
	}
	return FuncID(pkg + "." + fn.Name())
}

func (p *Program) litID(n *FuncNode, lit *ast.FuncLit) FuncID {
	pos := n.Unit.Fset.Position(lit.Pos())
	return FuncID(fmt.Sprintf("closure@%s:%d:%d", pos.Filename, pos.Line, pos.Column))
}

// exprText renders a receiver type expression for the degraded-info ID.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return exprText(e.X)
	case *ast.IndexExpr:
		return exprText(e.X)
	case *ast.IndexListExpr:
		return exprText(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return "?"
}

// scanBody walks one function body (stopping at nested function
// literals, which become their own nodes) and records calls, function
// values passed around, channel sends, and writes to package-level
// variables.
func (p *Program) scanBody(n *FuncNode, body *ast.BlockStmt) {
	u := n.Unit
	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.FuncLit:
			child := &FuncNode{ID: p.litID(n, e), Unit: u, Lit: e, Pos: e.Pos()}
			p.addNode(child)
			p.scanBody(child, e.Body)
			// The closure is invocable once its encloser ran (it may be
			// called inline, deferred, or stored); keep a conservative
			// edge for reachability.
			n.passed = append(n.passed, child.ID)
			return false
		case *ast.SendStmt:
			n.sendsOnChannel = true
		case *ast.CallExpr:
			call := Call{Pos: e.Pos()}
			call.Callee, call.Name = p.resolveCallee(n, u, e.Fun)
			for _, arg := range e.Args {
				if id, ok := p.funcValueID(n, u, arg); ok {
					call.FuncArgs = append(call.FuncArgs, id)
					n.passed = append(n.passed, id)
				}
			}
			n.Calls = append(n.Calls, call)
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				recordGlobalWrite(n, u, lhs)
			}
			// Function values stored into variables/fields stay
			// invocable from this node's future.
			for _, rhs := range e.Rhs {
				if id, ok := p.funcValueID(n, u, rhs); ok {
					n.passed = append(n.passed, id)
				}
			}
		case *ast.IncDecStmt:
			recordGlobalWrite(n, u, e.X)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// resolveCallee maps a call's Fun expression to a FuncID where
// statically possible. Generic instantiations are unwrapped; calls
// through plain function-typed variables resolve to "" (blind spot).
func (p *Program) resolveCallee(n *FuncNode, u *Unit, fun ast.Expr) (FuncID, string) {
	switch e := fun.(type) {
	case *ast.ParenExpr:
		return p.resolveCallee(n, u, e.X)
	case *ast.IndexExpr:
		return p.resolveCallee(n, u, e.X)
	case *ast.IndexListExpr:
		return p.resolveCallee(n, u, e.X)
	case *ast.FuncLit:
		return p.litID(n, e), "func literal"
	case *ast.Ident:
		if u.Info != nil {
			if fn, ok := u.Info.Uses[e].(*types.Func); ok {
				return funcObjID(fn), e.Name
			}
		}
		return "", e.Name
	case *ast.SelectorExpr:
		if u.Info != nil {
			if fn, ok := u.Info.Uses[e.Sel].(*types.Func); ok {
				return funcObjID(fn), e.Sel.Name
			}
		}
		return "", e.Sel.Name
	}
	return "", ""
}

// funcValueID resolves an expression used as a value to a FuncID when
// it denotes a function: a literal, a named function, or a method
// value, also under a conversion such as sim.Func(f), which hands the
// same function on as a handler.
func (p *Program) funcValueID(n *FuncNode, u *Unit, e ast.Expr) (FuncID, bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return p.funcValueID(n, u, e.X)
	case *ast.CallExpr:
		if len(e.Args) == 1 && u.Info != nil && u.Info.Types[e.Fun].IsType() {
			return p.funcValueID(n, u, e.Args[0])
		}
	case *ast.FuncLit:
		// Visited (and registered) by scanBody's own walk.
		return p.litID(n, e), true
	case *ast.Ident:
		if u.Info != nil {
			if fn, ok := u.Info.Uses[e].(*types.Func); ok {
				return funcObjID(fn), true
			}
		}
	case *ast.SelectorExpr:
		if u.Info != nil {
			if fn, ok := u.Info.Uses[e.Sel].(*types.Func); ok {
				return funcObjID(fn), true
			}
		}
	}
	return "", false
}

// globalVarKey returns the index key for a package-level variable, or
// "" when obj is not one.
func globalVarKey(obj types.Object) string {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return ""
	}
	return v.Pkg().Path() + "." + v.Name()
}

// writeTarget digs to the identifier naming the variable an assignable
// expression mutates (x, x.f, x[i], *x all root at x). A qualified
// reference otherpkg.Var roots at Var, not at the package name.
func writeTarget(u *Unit, e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			if id, ok := t.X.(*ast.Ident); ok && u.Info != nil {
				if _, isPkg := u.Info.Uses[id].(*types.PkgName); isPkg {
					return t.Sel
				}
			}
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return nil
		}
	}
}

func recordGlobalWrite(n *FuncNode, u *Unit, lhs ast.Expr) {
	if u.Info == nil {
		return
	}
	id := writeTarget(u, lhs)
	if id == nil {
		return
	}
	obj := u.Info.Uses[id]
	key := globalVarKey(obj)
	if key == "" {
		return
	}
	n.Writes = append(n.Writes, globalWrite{Key: key, Pos: id.Pos(), Guarded: isSyncGuarded(obj.Type())})
}

// findEntryPoints collects every event-handler root: callbacks handed
// to the kernel scheduler or timers, and concrete handler-interface
// methods.
func (p *Program) findEntryPoints() {
	seen := map[FuncID]bool{}
	add := func(id FuncID, kind string, pos token.Pos) {
		if id == "" || seen[id] {
			return
		}
		seen[id] = true
		p.EntryPoints = append(p.EntryPoints, EntryPoint{Fn: id, Kind: kind, Pos: pos})
	}
	for _, fid := range p.IDs {
		n := p.Funcs[fid]
		for _, c := range n.Calls {
			if c.Callee == "" {
				continue
			}
			for _, sched := range schedulerEntryPoints {
				if !idHasSuffix(c.Callee, sched.suffix) {
					continue
				}
				for _, arg := range c.FuncArgs {
					add(arg, sched.kind, c.Pos)
				}
			}
		}
		if n.Decl != nil && n.Decl.Recv != nil && (handlerMethodNames[n.Decl.Name.Name] || isHandlerFire(n.Decl)) {
			add(fid, "dispatch", n.Pos)
		}
	}
	slices.SortFunc(p.EntryPoints, func(a, b EntryPoint) int {
		return strings.Compare(string(a.Fn), string(b.Fn))
	})
}

// Reachable computes the closure of nodes reachable from roots over
// resolved call edges and passed function values.
func (p *Program) Reachable(roots []FuncID) map[FuncID]bool {
	out := map[FuncID]bool{}
	var stack []FuncID
	push := func(id FuncID) {
		if id == "" || out[id] {
			return
		}
		if _, ok := p.Funcs[id]; !ok {
			return
		}
		out[id] = true
		stack = append(stack, id)
	}
	for _, r := range roots {
		push(r)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := p.Funcs[id]
		for _, c := range n.Calls {
			push(c.Callee)
		}
		for _, f := range n.passed {
			push(f)
		}
	}
	return out
}

// HandlerReachable returns the set of nodes reachable from any event
// handler entry point, memoizing nothing: callers cache as needed.
func (p *Program) HandlerReachable() map[FuncID]bool {
	roots := make([]FuncID, 0, len(p.EntryPoints))
	for _, ep := range p.EntryPoints {
		roots = append(roots, ep.Fn)
	}
	return p.Reachable(roots)
}

// EntryPathTo returns one example call chain (entry point → … → id)
// proving id is handler-reachable, as display names, or nil. Used to
// make shard-safety findings self-explanatory.
func (p *Program) EntryPathTo(id FuncID) []string {
	type hop struct {
		id   FuncID
		prev *hop
	}
	visited := map[FuncID]bool{}
	var queue []*hop
	for _, ep := range p.EntryPoints {
		if _, ok := p.Funcs[ep.Fn]; ok && !visited[ep.Fn] {
			visited[ep.Fn] = true
			queue = append(queue, &hop{id: ep.Fn})
		}
	}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h.id == id {
			var path []string
			for ; h != nil; h = h.prev {
				path = append(path, shortID(h.id))
			}
			slices.Reverse(path)
			return path
		}
		n := p.Funcs[h.id]
		next := slices.Clone(n.passed)
		for _, c := range n.Calls {
			next = append(next, c.Callee)
		}
		for _, c := range next {
			if c == "" || visited[c] {
				continue
			}
			if _, ok := p.Funcs[c]; !ok {
				continue
			}
			visited[c] = true
			queue = append(queue, &hop{id: c, prev: h})
		}
	}
	return nil
}

// shortID compresses a FuncID for diagnostics: the package path keeps
// only its last segment.
func shortID(id FuncID) string {
	s := string(id)
	if strings.HasPrefix(s, "closure@") {
		if i := strings.LastIndex(s, "/"); i >= 0 {
			return "closure@" + s[i+1:]
		}
		return s
	}
	if slash := strings.LastIndex(s, "/"); slash >= 0 {
		return s[slash+1:]
	}
	return s
}
