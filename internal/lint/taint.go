package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is the forward taint layer on top of the call graph: a
// pragmatic AST-level dataflow (calls, returns, closures — no SSA) that
// gives maporder interprocedural reach. Two analyses share the
// machinery:
//
//   - sink reachability: can calling this function lead to an
//     order-observable effect (event scheduling, a journal record, a
//     metrics series, packet movement, output)?
//   - map-ordered returns: does this function return a slice
//     accumulated from a map iteration without sorting? Used by
//     maporder's cross-function leak check.
//
// Both summaries are memoized on the Program and computed on demand.
// Recursion cycles resolve to the neutral value (no sinks / not
// map-ordered), an under-approximation that can miss findings inside
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
