package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// Goroutine forbids `go` statements and sync / sync/atomic imports in
// every internal/ package except the worker-pool engine. The DES
// kernel is sequential by design: causality is the event heap's total
// order, and determinism depends on it. Concurrency belongs one level
// up, across runs, in the engine built to contain it: internal/sweep,
// whose one pool serves both cell sweeps and the run server and hands
// a whole run to one worker. internal/serve is also exempt — for sync
// imports only, not go statements: its mutexes guard the HTTP-facing
// journal buffer and run registry, provably off the simulation path
// (each run is owned by one sweep worker from build to finish, and
// handlers never touch a live run).
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc:  "forbid go statements and sync primitives in internal/ (except internal/sweep); every run is sequential on one kernel",
	Run:  runGoroutine,
}

func runGoroutine(p *Pass) {
	if !p.InInternal() || isWorkerPoolPkg(p.Path) {
		return
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "sync" || path == "sync/atomic" {
				if isServePkg(p.Path) {
					// The HTTP layer may lock its client-facing
					// buffers; runs still execute on sweep workers.
					continue
				}
				p.Reportf(imp.Pos(), "import %q: sync primitives imply shared-state concurrency; every run is sequential on one kernel (only internal/sweep may coordinate goroutines, across runs)", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(), "go statement: simulation code must stay sequential; parallelize across runs with internal/sweep")
			}
			return true
		})
	}
}

func isWorkerPoolPkg(path string) bool {
	return strings.HasSuffix(path, "/internal/sweep") || path == "internal/sweep"
}

func isServePkg(path string) bool {
	return strings.HasSuffix(path, "/internal/serve") || path == "internal/serve"
}
