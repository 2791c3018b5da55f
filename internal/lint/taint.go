package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is the forward taint/provenance layer on top of the call
// graph: a pragmatic AST-level dataflow (assignments, calls, returns,
// closures — no SSA) that gives the determinism rules interprocedural
// reach. Three analyses share the machinery:
//
//   - sink reachability: can calling this function lead to an
//     order-observable effect (event scheduling, a journal record, a
//     metrics series, packet movement, output)? Used by the sink-aware
//     maporder rule.
//   - rand provenance: is a *rand.Rand value rooted in a seed-derived
//     constructor (rng.New/ForNode, Kernel.Rand, rand.New over an
//     rng.Derive'd seed), a function parameter, a package-level
//     variable, or a raw fixed seed? Used by the flow-aware globalrand
//     and faultrand rules.
//   - map-ordered returns: does this function return a slice
//     accumulated from a map iteration without sorting? Used by
//     maporder's cross-function leak check.
//
// All summaries are memoized on the Program and computed on demand.
// Recursion cycles resolve to the neutral value (no sinks / trusted
// provenance), an under-approximation that can miss findings inside
// mutually recursive helpers but never invents one.

// ---------------------------------------------------------------------
// Sink reachability
// ---------------------------------------------------------------------

// sinkSet is a bit set of order-observable effect classes.
type sinkSet uint8

const (
	sinkSchedule sinkSet = 1 << iota // kernel event scheduling / timers
	sinkJournal                      // metrics.Journal records
	sinkMetrics                      // metrics counter/gauge/histogram writes
	sinkPacket                       // packet movement (MAC enqueue, channel sends)
	sinkOutput                       // process output (fmt, io.Writer)
)

// Describe names the most causality-relevant sink in the set for
// diagnostics.
func (s sinkSet) Describe() string {
	switch {
	case s&sinkSchedule != 0:
		return "the event schedule"
	case s&sinkJournal != 0:
		return "the run journal"
	case s&sinkMetrics != 0:
		return "a metrics series"
	case s&sinkPacket != 0:
		return "packet transmission"
	case s&sinkOutput != 0:
		return "process output"
	}
	return "no sink"
}

// baseSinks maps resolved callee-ID suffixes to the sink they are.
var baseSinks = []struct {
	suffix string
	kind   sinkSet
}{
	{"internal/sim.(Kernel).Schedule", sinkSchedule},
	{"internal/sim.(Kernel).At", sinkSchedule},
	{"internal/sim.NewTimer", sinkSchedule},
	{"internal/sim.(Timer).Reset", sinkSchedule},
	{"internal/metrics.(Journal).Write", sinkJournal},
	// Counter.Inc/Add are deliberately absent: uint64 addition is
	// commutative, so the final count is identical under any iteration
	// order. Gauge and Histogram are float-valued — Set is
	// last-write-wins and Add/Observe accumulate in IEEE-754 order, so
	// their results are order-observable.
	{"internal/metrics.(Gauge).Set", sinkMetrics},
	{"internal/metrics.(Gauge).Add", sinkMetrics},
	{"internal/metrics.(Histogram).Observe", sinkMetrics},
	{"internal/mac.(MAC).Enqueue", sinkPacket},
	{"io.(Writer).Write", sinkOutput},
	{"io.(StringWriter).WriteString", sinkOutput},
}

// outputPkgs are packages whose Print*/Write* functions and methods
// count as process output.
var outputPkgs = map[string]bool{
	"fmt": true, "os": true, "io": true, "bufio": true,
	"bytes": true, "strings": true, "log": true,
}

// baseSinkOf classifies a resolved callee ID that may have no body in
// the program (stdlib, interface methods).
func baseSinkOf(id FuncID) sinkSet {
	for _, b := range baseSinks {
		if idHasSuffix(id, b.suffix) {
			return b.kind
		}
	}
	s := string(id)
	name := s[strings.LastIndex(s, ".")+1:]
	if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") ||
		strings.HasPrefix(name, "Write") {
		// Package path is everything before the first "." or ".(".
		pkg := s
		if i := strings.Index(pkg, ".("); i >= 0 {
			pkg = pkg[:i]
		} else if i := strings.LastIndex(pkg, "."); i >= 0 {
			pkg = pkg[:i]
		}
		if i := strings.LastIndex(pkg, "/"); i >= 0 {
			pkg = pkg[i+1:]
		}
		if outputPkgs[pkg] {
			return sinkOutput
		}
	}
	return 0
}

// SinkReach returns the set of sinks transitively reachable from id.
func (p *Program) SinkReach(id FuncID) sinkSet {
	if s, ok := p.sinkMemo[id]; ok {
		return s
	}
	if p.sinkActive[id] {
		return 0 // cycle: resolved by the frame that opened it
	}
	n := p.Funcs[id]
	if n == nil {
		return baseSinkOf(id)
	}
	p.sinkActive[id] = true
	var s sinkSet
	if n.sendsOnChannel {
		s |= sinkPacket
	}
	for _, c := range n.Calls {
		if c.Callee == "" {
			continue
		}
		s |= baseSinkOf(c.Callee)
		s |= p.SinkReach(c.Callee)
	}
	for _, f := range n.passed {
		s |= p.SinkReach(f)
	}
	delete(p.sinkActive, id)
	p.sinkMemo[id] = s
	return s
}

// ---------------------------------------------------------------------
// Rand / seed provenance
// ---------------------------------------------------------------------

type provKind uint8

const (
	provTrusted provKind = iota // unknown origin (fields, foreign calls): checked at its own definition site, trusted here
	provDerived                 // rooted in rng.Derive / rng.New / rng.ForNode / Kernel.Rand
	provParam                   // flows unchanged from a function parameter; resolved at call sites
	provGlobal                  // rooted in a package-level variable: a process-shared stream
	provRaw                     // rooted in a fixed (literal or underived) seed
)

// provSummary is the provenance verdict for one expression, or for a
// function's returned stream as a function of its arguments.
type provSummary struct {
	kind  provKind
	index int    // parameter index when kind == provParam
	key   string // global variable key when kind == provGlobal
}

var trusted = provSummary{kind: provTrusted}

// sanctionedRandCtors are the call targets that construct a
// seed-derived stream by definition.
var sanctionedRandCtors = []string{
	"internal/rng.New",
	"internal/rng.ForNode",
	"internal/sim.(Kernel).Rand",
}

// rawRandCtors are the math/rand constructors whose output is only as
// derived as the seed fed to them.
var rawRandCtors = []string{
	"math/rand.New",
	"math/rand.NewSource",
	"math/rand/v2.New",
	"math/rand/v2.NewPCG",
	"math/rand/v2.NewChaCha8",
}

func matchesAny(id FuncID, patterns []string) bool {
	for _, pat := range patterns {
		if idHasSuffix(id, pat) {
			return true
		}
	}
	return false
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

// provEnv caches classified local bindings for one function body.
type provEnv map[types.Object]provSummary

// buildProvEnv classifies local variables of rand type (and integer
// locals feeding seed positions) from the body's assignments, in source
// order. Flow-insensitive: a variable rebound with a different
// provenance degrades to trusted.
func (p *Program) buildProvEnv(n *FuncNode) provEnv {
	env := provEnv{}
	u := n.Unit
	if u.Info == nil {
		return env
	}
	body := n.body()
	if body == nil {
		return env
	}
	bind := func(id *ast.Ident, rhs ast.Expr) {
		obj := u.Info.Defs[id]
		if obj == nil {
			obj = u.Info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return
		}
		var sum provSummary
		switch {
		case isRandValueType(v.Type()):
			sum = p.classifyRand(n, rhs, env)
		case isIntegerType(v.Type()):
			sum = p.classifySeed(n, rhs, env)
		default:
			return
		}
		if old, ok := env[obj]; ok && old != sum {
			sum = trusted
		}
		env[obj] = sum
	}
	inspectShallow(body, func(node ast.Node) {
		switch st := node.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return
			}
			for i, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					bind(id, st.Rhs[i])
				}
			}
		case *ast.DeclStmt:
			gd, ok := st.Decl.(*ast.GenDecl)
			if !ok {
				return
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != len(vs.Names) {
					continue
				}
				for i, name := range vs.Names {
					bind(name, vs.Values[i])
				}
			}
		}
	})
	return env
}

// body returns the statement block of the node's function.
func (n *FuncNode) body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	if n.Lit != nil {
		return n.Lit.Body
	}
	return nil
}

// inspectShallow walks body without descending into nested function
// literals (each literal is its own FuncNode).
func inspectShallow(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		if node != nil {
			fn(node)
		}
		return true
	})
}

func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// typeOf is Info.TypeOf tolerating degraded (nil) type information.
func typeOf(u *Unit, e ast.Expr) types.Type {
	if u.Info == nil {
		return nil
	}
	return u.Info.TypeOf(e)
}

// paramIndex returns obj's position in n's parameter list, or -1.
func paramIndex(n *FuncNode, obj types.Object) int {
	var params *ast.FieldList
	if n.Decl != nil {
		params = n.Decl.Type.Params
	} else if n.Lit != nil {
		params = n.Lit.Type.Params
	}
	if params == nil {
		return -1
	}
	i := 0
	for _, field := range params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if def := n.Unit.Info.Defs[name]; def != nil && def == obj {
				return i
			}
			i++
		}
	}
	return -1
}

// argAt returns the call argument at index i, or nil.
func argAt(call *ast.CallExpr, i int) ast.Expr {
	if i < 0 || i >= len(call.Args) {
		return nil
	}
	return call.Args[i]
}

// isConversion reports whether call is a type conversion T(x).
func isConversion(u *Unit, call *ast.CallExpr) bool {
	if u.Info == nil || len(call.Args) != 1 {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		_, ok := u.Info.Uses[fun].(*types.TypeName)
		return ok
	case *ast.SelectorExpr:
		_, ok := u.Info.Uses[fun.Sel].(*types.TypeName)
		return ok
	}
	return false
}

// classifyRand determines the provenance of a rand-valued expression
// inside n's body.
func (p *Program) classifyRand(n *FuncNode, e ast.Expr, env provEnv) provSummary {
	u := n.Unit
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if isConversion(u, e) {
			return p.classifyRand(n, e.Args[0], env)
		}
		callee, _ := p.resolveCallee(n, u, e.Fun)
		if callee == "" {
			return trusted
		}
		if matchesAny(callee, sanctionedRandCtors) {
			return provSummary{kind: provDerived}
		}
		if matchesAny(callee, rawRandCtors) {
			return p.classifyCtorSeed(n, e, env)
		}
		if _, ok := p.Funcs[callee]; ok {
			sum := p.RandSummary(callee)
			if sum.kind == provParam {
				if arg := argAt(e, sum.index); arg != nil {
					// The helper forwards whatever stream/seed its
					// caller provides: classify the actual argument.
					if isRandValueType(typeOf(u, arg)) {
						return p.classifyRand(n, arg, env)
					}
					return p.classifySeed(n, arg, env)
				}
				return trusted
			}
			return sum
		}
		return trusted
	case *ast.Ident:
		if u.Info == nil {
			return trusted
		}
		obj := u.Info.Uses[e]
		if obj == nil {
			return trusted
		}
		if i := paramIndex(n, obj); i >= 0 {
			return provSummary{kind: provParam, index: i}
		}
		if key := globalVarKey(obj); key != "" {
			return provSummary{kind: provGlobal, key: key}
		}
		if sum, ok := env[obj]; ok {
			return sum
		}
		return trusted
	case *ast.SelectorExpr:
		if u.Info != nil {
			if key := globalVarKey(u.Info.Uses[e.Sel]); key != "" {
				return provSummary{kind: provGlobal, key: key}
			}
		}
		return trusted // struct fields: sanctioned at their own store sites
	}
	return trusted
}

// classifyCtorSeed resolves the provenance of a raw math/rand
// constructor call from its seed argument: rand.New(rand.NewSource(s))
// and rand.NewSource(s) both classify as s does.
func (p *Program) classifyCtorSeed(n *FuncNode, call *ast.CallExpr, env provEnv) provSummary {
	if len(call.Args) == 0 {
		return trusted
	}
	arg := ast.Unparen(call.Args[0])
	if inner, ok := arg.(*ast.CallExpr); ok {
		if callee, _ := p.resolveCallee(n, n.Unit, inner.Fun); callee != "" && matchesAny(callee, rawRandCtors) {
			return p.classifyCtorSeed(n, inner, env)
		}
	}
	if isRandValueType(typeOf(n.Unit, arg)) {
		return p.classifyRand(n, arg, env)
	}
	return p.classifySeed(n, arg, env)
}

// classifySeed determines the provenance of an integer seed expression.
func (p *Program) classifySeed(n *FuncNode, e ast.Expr, env provEnv) provSummary {
	u := n.Unit
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return provSummary{kind: provRaw}
	case *ast.UnaryExpr:
		return p.classifySeed(n, e.X, env)
	case *ast.BinaryExpr:
		// Seed arithmetic keeps the best provenance of its operands:
		// mixing a derived seed with a constant stays derived.
		return bestProv(p.classifySeed(n, e.X, env), p.classifySeed(n, e.Y, env))
	case *ast.CallExpr:
		if isConversion(u, e) {
			return p.classifySeed(n, e.Args[0], env)
		}
		callee, _ := p.resolveCallee(n, u, e.Fun)
		if callee == "" {
			return trusted
		}
		if idHasSuffix(callee, "internal/rng.Derive") {
			return provSummary{kind: provDerived}
		}
		if _, ok := p.Funcs[callee]; ok {
			sum := p.SeedSummary(callee)
			if sum.kind == provParam {
				if arg := argAt(e, sum.index); arg != nil {
					return p.classifySeed(n, arg, env)
				}
				return trusted
			}
			return sum
		}
		return trusted
	case *ast.Ident:
		if u.Info == nil {
			return trusted
		}
		obj := u.Info.Uses[e]
		if obj == nil {
			return trusted
		}
		if _, isConst := obj.(*types.Const); isConst {
			return provSummary{kind: provRaw}
		}
		if i := paramIndex(n, obj); i >= 0 {
			return provSummary{kind: provParam, index: i}
		}
		if key := globalVarKey(obj); key != "" {
			return provSummary{kind: provGlobal, key: key}
		}
		if sum, ok := env[obj]; ok {
			return sum
		}
		return trusted
	}
	return trusted
}

// provRank orders provenance from most to least sanctioned.
func provRank(k provKind) int {
	switch k {
	case provDerived:
		return 0
	case provParam:
		return 1
	case provTrusted:
		return 2
	case provGlobal:
		return 3
	case provRaw:
		return 4
	}
	return 2
}

func bestProv(a, b provSummary) provSummary {
	if provRank(a.kind) <= provRank(b.kind) {
		return a
	}
	return b
}

// RandSummary computes the provenance of the *rand.Rand values a
// function returns, joined across return sites. Functions with no rand
// results, mixed provenance, or recursion resolve to trusted.
func (p *Program) RandSummary(id FuncID) provSummary {
	if sum, ok := p.randMemo[id]; ok {
		return sum
	}
	if p.randActive[id] {
		return trusted
	}
	n := p.Funcs[id]
	if n == nil {
		return trusted
	}
	p.randActive[id] = true
	sum := p.returnSummary(n, func(e ast.Expr) (provSummary, bool) {
		if t := n.Unit.Info.TypeOf(e); isRandValueType(t) {
			return p.classifyRand(n, e, p.buildProvEnv(n)), true
		}
		return trusted, false
	})
	delete(p.randActive, id)
	p.randMemo[id] = sum
	return sum
}

// SeedSummary is RandSummary for integer-returning seed helpers.
func (p *Program) SeedSummary(id FuncID) provSummary {
	if sum, ok := p.seedMemo[id]; ok {
		return sum
	}
	if p.seedActive[id] {
		return trusted
	}
	n := p.Funcs[id]
	if n == nil {
		return trusted
	}
	p.seedActive[id] = true
	sum := p.returnSummary(n, func(e ast.Expr) (provSummary, bool) {
		if t := n.Unit.Info.TypeOf(e); t != nil && isIntegerType(t) {
			return p.classifySeed(n, e, p.buildProvEnv(n)), true
		}
		return trusted, false
	})
	delete(p.seedActive, id)
	p.seedMemo[id] = sum
	return sum
}

// returnSummary joins classify over every matching returned expression.
func (p *Program) returnSummary(n *FuncNode, classify func(ast.Expr) (provSummary, bool)) provSummary {
	body := n.body()
	if body == nil || n.Unit.Info == nil {
		return trusted
	}
	var (
		joined provSummary
		seen   bool
	)
	inspectShallow(body, func(node ast.Node) {
		ret, ok := node.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for _, res := range ret.Results {
			sum, ok := classify(res)
			if !ok {
				continue
			}
			if !seen {
				joined, seen = sum, true
			} else if joined != sum {
				joined = trusted
			}
		}
	})
	if !seen {
		return trusted
	}
	return joined
}

// ---------------------------------------------------------------------
// Map-ordered returns
// ---------------------------------------------------------------------

// ReturnsMapOrdered reports whether id returns a slice whose element
// order was inherited from a map iteration with no sort in between —
// the shape that leaks nondeterministic order across a function
// boundary.
func (p *Program) ReturnsMapOrdered(id FuncID) bool {
	switch p.mapRetMemo[id] {
	case 1:
		return true
	case 2:
		return false
	}
	if p.mapRetBusy[id] {
		return false
	}
	n := p.Funcs[id]
	if n == nil {
		return false
	}
	p.mapRetBusy[id] = true
	res := p.computeMapRet(n)
	delete(p.mapRetBusy, id)
	if res {
		p.mapRetMemo[id] = 1
	} else {
		p.mapRetMemo[id] = 2
	}
	return res
}

func (p *Program) computeMapRet(n *FuncNode) bool {
	body := n.body()
	u := n.Unit
	if body == nil || u.Info == nil {
		return false
	}
	// Variables accumulated under a map range (including the plain
	// key-collection idiom: the keys themselves are map-ordered).
	accum := map[string]bool{}
	inspectShallow(body, func(node ast.Node) {
		rs, ok := node.(*ast.RangeStmt)
		if !ok {
			return
		}
		t := u.Info.TypeOf(rs.X)
		if t == nil {
			return
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return
		}
		for _, v := range appendTargets(rs) {
			accum[v] = true
		}
	})
	if len(accum) == 0 {
		// No direct accumulation: a returned call to another
		// map-ordered function still propagates the order.
		return p.returnsMapOrderedCall(n)
	}
	// A sort anywhere in the function launders the order.
	sorts := collectSortsUnit(u, body)
	for v := range sorts {
		delete(accum, v)
	}
	if len(accum) == 0 {
		return p.returnsMapOrderedCall(n)
	}
	returned := false
	inspectShallow(body, func(node ast.Node) {
		ret, ok := node.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for _, res := range ret.Results {
			if ident, ok := ast.Unparen(res).(*ast.Ident); ok && accum[ident.Name] {
				returned = true
			}
		}
	})
	return returned || p.returnsMapOrderedCall(n)
}

// returnsMapOrderedCall reports whether n returns the result of another
// function that itself returns a map-ordered slice.
func (p *Program) returnsMapOrderedCall(n *FuncNode) bool {
	body := n.body()
	found := false
	inspectShallow(body, func(node ast.Node) {
		ret, ok := node.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for _, res := range ret.Results {
			call, ok := ast.Unparen(res).(*ast.CallExpr)
			if !ok {
				continue
			}
			if callee, _ := p.resolveCallee(n, n.Unit, call.Fun); callee != "" {
				if _, ok := p.Funcs[callee]; ok && p.ReturnsMapOrdered(callee) {
					found = true
				}
			}
		}
	})
	return found
}

// collectSortsUnit records which variable names are passed to sort.* /
// slices.Sort* anywhere under node.
func collectSortsUnit(u *Unit, node ast.Node) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !sortCalls[sel.Sel.Name] {
			return true
		}
		pkg := ""
		if id, ok := sel.X.(*ast.Ident); ok {
			pkg = id.Name
			if u.Info != nil {
				if pn, ok := u.Info.Uses[id].(*types.PkgName); ok {
					pkg = pn.Imported().Path()
				}
			}
		}
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		if id, ok := unwrapConversion(call.Args[0]).(*ast.Ident); ok {
			out[id.Name] = true
		}
		return true
	})
	return out
}

// appendTargets lists the outer variables appended to inside a map
// range body (conversions of the key included).
func appendTargets(rs *ast.RangeStmt) []string {
	var out []string
	ast.Inspect(rs.Body, func(node ast.Node) bool {
		asg, ok := node.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range asg.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
				continue
			}
			if i < len(asg.Lhs) {
				if id, ok := asg.Lhs[i].(*ast.Ident); ok {
					out = append(out, id.Name)
				}
			}
		}
		return true
	})
	return out
}
