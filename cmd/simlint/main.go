// Command simlint enforces the simulator's determinism invariants with
// static analysis. It loads the requested packages into one
// whole-module program (call graph + taint summaries, see
// internal/lint), runs every rule with flow-aware context, prints
// findings as file:line:col diagnostics, and exits nonzero when any
// survive.
//
// Usage:
//
//	simlint ./...          # whole module (what CI runs)
//	simlint ./internal/sim ./cmd/wmansim
//	simlint -list          # show the rule set
//	simlint -rules globalrand,floateq ./...
//	simlint -audit ./...   # also fail on stale //lint:ignore directives
//
// Suppress a finding in source with:
//
//	//lint:ignore <rule> <reason>
//
// on the offending line or the line above. The reason is mandatory.
// -audit flags directives that no longer suppress anything; because
// staleness is judged against the full rule set, -audit cannot be
// combined with a -rules subset. The sharedstate rule is the
// shard-safety gate and cannot be waived: no directive silences it.
//
// Exit status: 0 clean, 1 findings (or stale directives under -audit),
// 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"routeless/internal/lint"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list analyzers and exit")
		rules = flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
		audit = flag.Bool("audit", false, "fail on stale //lint:ignore directives (full rule set only)")
	)
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	subset := false
	if *rules != "" {
		want := map[string]bool{}
		for _, r := range strings.Split(*rules, ",") {
			want[strings.TrimSpace(r)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		unknown := make([]string, 0, len(want))
		for r := range want {
			unknown = append(unknown, r)
		}
		slices.Sort(unknown)
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "simlint: unknown rule(s) %s (try -list)\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
		analyzers = sel
		subset = len(sel) < len(lint.All())
	}
	if *audit && subset {
		fmt.Fprintln(os.Stderr, "simlint: -audit needs the full rule set; drop -rules (staleness is judged against every rule)")
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	dirs, err := expandArgs(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}

	loader, err := lint.NewLoader(moduleRoot(dirs), "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}

	// Load everything first: the flow-aware rules need the whole
	// program (cross-package call edges, taint summaries) before any
	// unit is judged.
	var units []*lint.Unit
	for _, dir := range dirs {
		us, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %s: %v\n", dir, err)
			os.Exit(2)
		}
		units = append(units, us...)
	}
	prog := lint.BuildProgram(units)
	res := lint.Analyze(prog, analyzers)

	for _, d := range res.Diags {
		fmt.Println(d)
	}
	failed := len(res.Diags) > 0
	if len(res.Diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(res.Diags))
	}
	if *audit && len(res.Stale) > 0 {
		for _, s := range res.Stale {
			fmt.Println(s)
		}
		fmt.Fprintf(os.Stderr, "simlint: %d stale suppression(s)\n", len(res.Stale))
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// expandArgs turns package patterns into directories. A trailing /...
// recurses; plain paths name one directory.
func expandArgs(args []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		abs, err := filepath.Abs(d)
		if err == nil && !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, a := range args {
		if root, ok := strings.CutSuffix(a, "/..."); ok {
			if root == "" || root == "." {
				root = "."
			}
			sub, err := lint.Walk(root)
			if err != nil {
				return nil, err
			}
			for _, d := range sub {
				add(d)
			}
			continue
		}
		fi, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("%s is not a directory", a)
		}
		add(a)
	}
	return dirs, nil
}

// moduleRoot finds the nearest ancestor of the first target directory
// (or the working directory) containing go.mod.
func moduleRoot(dirs []string) string {
	start, _ := os.Getwd()
	if len(dirs) > 0 {
		start = dirs[0]
	}
	for d := start; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return start
		}
		d = parent
	}
}
