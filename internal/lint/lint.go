// Package lint is a small, stdlib-only static-analysis engine that
// enforces the simulator's determinism invariants. The paper's results
// are reproducible only because every run is bit-for-bit deterministic
// from its seed; these invariants used to live in package comments, and
// this package makes them mechanically checked.
//
// The engine mirrors the shape of golang.org/x/tools/go/analysis
// without the dependency: an Analyzer inspects one type-checked package
// unit through a Pass and reports position-accurate Diagnostics. The
// cmd/simlint driver loads every package under a module root (see
// load.go) and fails the build on findings.
//
// False positives are silenced in source with
//
//	//lint:ignore <rule> <reason>
//
// placed on the offending line or the line directly above it. The
// reason is mandatory: an unexplained suppression is itself reported.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer is one named rule. Run inspects the package unit behind the
// Pass and reports findings through it.
type Analyzer struct {
	Name string      // rule name used in output and //lint:ignore
	Doc  string      // one-line description of the invariant
	Run  func(*Pass) // inspection body; must not retain the Pass
}

// Diagnostic is one finding, positioned for editors and CI logs.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Message)
}

// Pass hands one type-checked package unit to an analyzer. Type
// information may be partial when the loader degraded (missing stdlib
// export data, parse errors in a dependency); analyzers must tolerate
// nil entries in Info maps.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package // may be nil when type checking failed entirely
	Info  *types.Info
	Path  string // import path of the unit, e.g. "routeless/internal/sim"

	// Prog is the whole-module view backing the flow-aware rules:
	// call graph, taint summaries, entry points. May be nil (a bare
	// Run on one unit), in which case flow-aware rules degrade to
	// their syntactic core and the sharedstate analyzer is silent.
	Prog *Program

	unit  *Unit
	rule  string
	diags *[]Diagnostic
}

// Reportf records a finding at pos under the running analyzer's rule
// name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// InInternal reports whether the unit lives under an internal/ tree.
func (p *Pass) InInternal() bool {
	return strings.Contains(p.Path, "/internal/") ||
		strings.HasSuffix(p.Path, "/internal") ||
		strings.HasPrefix(p.Path, "internal/")
}

// InCmd reports whether the unit is a command under cmd/.
func (p *Pass) InCmd() bool {
	return strings.Contains(p.Path, "/cmd/") || strings.HasPrefix(p.Path, "cmd/")
}

// InExamples reports whether the unit is example code.
func (p *Pass) InExamples() bool {
	return strings.Contains(p.Path, "/examples/") || strings.HasPrefix(p.Path, "examples/")
}

// IsTestFile reports whether the file containing pos is a _test.go
// file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// PkgNameOf resolves the selector's receiver to an imported package
// path, or "" when sel.X is not a plain package qualifier (method
// calls, field accesses, unresolved identifiers).
func (p *Pass) PkgNameOf(sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok || p.Info == nil {
		return ""
	}
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file   string
	line   int
	rule   string // "*" matches every rule
	reason string
	used   bool
}

const ignorePrefix = "//lint:ignore"

// parseIgnores extracts suppression directives from every file of the
// unit. Malformed directives (no rule, or no reason) are reported as
// findings themselves so they cannot silently rot.
func parseIgnores(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					*diags = append(*diags, Diagnostic{
						Pos:     pos,
						Rule:    "ignore",
						Message: "malformed directive: want //lint:ignore <rule> <reason>",
					})
					continue
				}
				out = append(out, &ignoreDirective{
					file:   pos.Filename,
					line:   fset.Position(c.End()).Line,
					rule:   fields[0],
					reason: strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return out
}

// suppressed reports whether d is covered by a directive on its line or
// the line above, and marks the directive used.
func suppressed(d Diagnostic, dirs []*ignoreDirective) bool {
	for _, dir := range dirs {
		if dir.file != d.Pos.Filename {
			continue
		}
		if dir.rule != d.Rule && dir.rule != "*" {
			continue
		}
		if dir.line == d.Pos.Line || dir.line == d.Pos.Line-1 {
			dir.used = true
			return true
		}
	}
	return false
}

// Unit is one loadable package unit ready for analysis.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Path  string
}

// runRaw applies every analyzer to one unit of prog, appending raw
// (unsuppressed) findings to raw.
func runRaw(prog *Program, u *Unit, analyzers []*Analyzer, raw *[]Diagnostic) {
	for _, a := range analyzers {
		pass := &Pass{
			Fset:  u.Fset,
			Files: u.Files,
			Pkg:   u.Pkg,
			Info:  u.Info,
			Path:  u.Path,
			Prog:  prog,
			unit:  u,
			rule:  a.Name,
			diags: raw,
		}
		a.Run(pass)
	}
}

// filterUnit applies u's //lint:ignore directives to raw findings,
// appending survivors (plus directive hygiene findings) to out, and
// returns the parsed directives with their used marks for auditing
// along with the number of findings they silenced.
func filterUnit(u *Unit, raw []Diagnostic, out *[]Diagnostic) ([]*ignoreDirective, int) {
	dirs := parseIgnores(u.Fset, u.Files, out)
	// Directives are validated against the full registry, not the
	// analyzers selected for this run: a -rules subset must not turn
	// legitimate suppressions of unselected rules into findings.
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	silenced := 0
	for _, d := range raw {
		if suppressed(d, dirs) {
			silenced++
		} else {
			*out = append(*out, d)
		}
	}
	for _, dir := range dirs {
		if dir.rule != "*" && !known[dir.rule] {
			dir.used = true // already reported as unknown; not also stale
			*out = append(*out, Diagnostic{
				Pos:     token.Position{Filename: dir.file, Line: dir.line},
				Rule:    "ignore",
				Message: fmt.Sprintf("directive suppresses unknown rule %q", dir.rule),
			})
		}
	}
	return dirs, silenced
}

func sortDiagnostics(out []Diagnostic) {
	slices.SortFunc(out, func(x, y Diagnostic) int {
		a, b := x.Pos, y.Pos
		if c := cmp.Compare(a.Filename, b.Filename); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Line, b.Line); c != 0 {
			return c
		}
		return cmp.Compare(a.Column, b.Column)
	})
}

// RunUnit applies every analyzer to one unit with prog supplying the
// flow-aware context, returning surviving diagnostics sorted by
// position.
func RunUnit(prog *Program, u *Unit, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	runRaw(prog, u, analyzers, &raw)
	var out []Diagnostic
	_, _ = filterUnit(u, raw, &out)
	sortDiagnostics(out)
	return out
}

// Run applies every analyzer to the unit in isolation: the flow-aware
// context is built from this one unit, so intraprocedural and
// intra-package interprocedural facts are available, cross-package ones
// are not.
func Run(u *Unit, analyzers []*Analyzer) []Diagnostic {
	return RunUnit(BuildProgram([]*Unit{u}), u, analyzers)
}

// StaleDirective is a //lint:ignore comment that suppressed nothing in
// a full-rule-set run: the finding it once silenced is gone and the
// directive is rotting in place.
type StaleDirective struct {
	Pos    token.Position
	Rule   string
	Reason string
}

func (s StaleDirective) String() string {
	return fmt.Sprintf("%s: audit: //lint:ignore %s suppresses nothing (stale; delete it)", s.Pos, s.Rule)
}

// Result is the outcome of a whole-program analysis.
type Result struct {
	Diags      []Diagnostic     // surviving findings, sorted by position
	Stale      []StaleDirective // directives that suppressed nothing
	Suppressed int              // findings silenced by directives
}

// Analyze runs analyzers over every unit of prog with full flow-aware
// context and directive auditing. Stale detection is only meaningful
// when analyzers is the full rule set: a subset run would report
// directives for unselected rules as stale.
func Analyze(prog *Program, analyzers []*Analyzer) *Result {
	res := &Result{}
	for _, u := range prog.Units {
		var raw []Diagnostic
		runRaw(prog, u, analyzers, &raw)
		dirs, silenced := filterUnit(u, raw, &res.Diags)
		res.Suppressed += silenced
		for _, dir := range dirs {
			if !dir.used {
				res.Stale = append(res.Stale, StaleDirective{
					Pos:    token.Position{Filename: dir.file, Line: dir.line},
					Rule:   dir.rule,
					Reason: dir.reason,
				})
			}
		}
	}
	sortDiagnostics(res.Diags)
	slices.SortFunc(res.Stale, func(a, b StaleDirective) int {
		if c := cmp.Compare(a.Pos.Filename, b.Pos.Filename); c != 0 {
			return c
		}
		return cmp.Compare(a.Pos.Line, b.Pos.Line)
	})
	return res
}

// All returns the full determinism rule set in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		GlobalRand,
		WallClock,
		MapOrder,
		Goroutine,
		FloatEq,
		SortPkg,
		SharedCap,
		FaultRand,
		SharedState,
	}
}
