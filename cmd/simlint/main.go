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
//	simlint -json ./...    # machine-readable findings + shard-safety report
//	simlint -json -report out.json ./...  # write the JSON to a file too
//
// Suppress a finding in source with:
//
//	//lint:ignore <rule> <reason>
//
// on the offending line or the line above. The reason is mandatory.
// -audit flags directives that no longer suppress anything; because
// staleness is judged against the full rule set, -audit cannot be
// combined with a -rules subset. -audit is also the shard-safety hard
// gate: it fails when any package-level global is classified both
// mutable and handler-written in the shardsafety inventory, and no
// //lint:ignore directive can waive that (suppressions silence
// diagnostics, not the inventory).
//
// The JSON payload carries the findings, the audit result, and the
// shardsafety/v1 inventory: every event-handler entry point, every
// package-level variable classified readonly/atomic/mutable, and the
// shared singleton types reached from handler context — the proof that
// concurrent sweep workers share no state.
//
// Exit status: 0 clean, 1 findings (or stale directives under -audit),
// 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"routeless/internal/lint"
)

// jsonFinding is one diagnostic in -json output.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// jsonStale is one stale suppression in -json output.
type jsonStale struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Rule   string `json:"rule"`
	Reason string `json:"reason"`
}

// jsonReport is the full -json payload.
type jsonReport struct {
	Findings    []jsonFinding     `json:"findings"`
	Stale       []jsonStale       `json:"stale"`
	Suppressed  int               `json:"suppressed"`
	ShardSafety *lint.ShardReport `json:"shardSafety"`
}

func main() {
	var (
		list    = flag.Bool("list", false, "list analyzers and exit")
		rules   = flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
		audit   = flag.Bool("audit", false, "fail on stale //lint:ignore directives (full rule set only)")
		jsonOut = flag.Bool("json", false, "emit findings and the shard-safety report as JSON on stdout")
		report  = flag.String("report", "", "also write the JSON payload to this file")
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

	failed := len(res.Diags) > 0
	if *audit && len(res.Stale) > 0 {
		failed = true
	}
	// -audit is also the shard-safety hard gate: a package-level global
	// that is both mutable and handler-written is shared by every sweep
	// worker's run and breaks the determinism contract, and unlike the sharedstate
	// diagnostics this check reads the raw inventory, so a //lint:ignore
	// cannot waive it.
	var shardViolations []string
	if *audit {
		shardViolations = lint.BuildShardReport(prog).Violations()
		if len(shardViolations) > 0 {
			failed = true
		}
	}

	if *jsonOut || *report != "" {
		payload := buildJSON(res, prog)
		if *jsonOut {
			if err := writeJSON(os.Stdout, payload); err != nil {
				fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
				os.Exit(2)
			}
		}
		if *report != "" {
			f, err := os.Create(*report)
			if err == nil {
				err = writeJSON(f, payload)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
				os.Exit(2)
			}
		}
	}
	if !*jsonOut {
		for _, d := range res.Diags {
			fmt.Println(d)
		}
		if *audit {
			for _, s := range res.Stale {
				fmt.Println(s)
			}
			for _, v := range shardViolations {
				fmt.Println(v)
			}
		}
	}
	if len(res.Diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(res.Diags))
	}
	if *audit && len(res.Stale) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d stale suppression(s)\n", len(res.Stale))
	}
	if len(shardViolations) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d shard-safety violation(s): mutable package-level state written from event handlers\n", len(shardViolations))
	}
	if failed {
		os.Exit(1)
	}
}

// buildJSON assembles the machine-readable payload, including the
// shard-safety inventory computed from the same program.
func buildJSON(res *lint.Result, prog *lint.Program) *jsonReport {
	payload := &jsonReport{
		Findings:    []jsonFinding{},
		Stale:       []jsonStale{},
		Suppressed:  res.Suppressed,
		ShardSafety: lint.BuildShardReport(prog),
	}
	for _, d := range res.Diags {
		payload.Findings = append(payload.Findings, jsonFinding{
			File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Rule: d.Rule, Message: d.Message,
		})
	}
	for _, s := range res.Stale {
		payload.Stale = append(payload.Stale, jsonStale{
			File: s.Pos.Filename, Line: s.Pos.Line, Rule: s.Rule, Reason: s.Reason,
		})
	}
	return payload
}

func writeJSON(w io.Writer, payload *jsonReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
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
