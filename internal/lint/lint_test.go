package lint

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestLoaderRealPackage type-checks a real module package through the
// loader and verifies type facts arrive, since every analyzer's
// precision depends on them.
func TestLoaderRealPackage(t *testing.T) {
	l := fixtureLoader(t)
	units, err := l.LoadDir(filepath.Join("..", "rng"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(units) == 0 {
		t.Fatal("no units loaded for internal/rng")
	}
	u := units[0]
	if u.Path != l.ModPath+"/internal/rng" {
		t.Errorf("unit path = %q", u.Path)
	}
	if u.Pkg == nil || len(u.Info.Uses) == 0 {
		t.Fatal("loader produced no type information")
	}
	if ds := Run(u, All()); len(ds) != 0 {
		t.Errorf("internal/rng should be lint-clean, got %v", ds)
	}
}

// TestLoaderModuleImports verifies cross-package imports inside the
// module resolve to real packages, not placeholders.
func TestLoaderModuleImports(t *testing.T) {
	l := fixtureLoader(t)
	pkg, err := l.Import(l.ModPath + "/internal/sim")
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	if pkg.Scope().Lookup("Kernel") == nil {
		t.Error("internal/sim loaded without its Kernel type")
	}
}

// TestRunOrdersDiagnostics checks findings come back sorted by file and
// position regardless of analyzer order.
func TestRunOrdersDiagnostics(t *testing.T) {
	got := analyze(t, FloatEq, "routeless/internal/fix", "fix.go", `package fix
func f(a, b float64) bool { return a == b }
func g(a, b float64) bool { return a != b }`).Diags
	if len(got) != 2 {
		t.Fatalf("got %d diagnostics: %v", len(got), got)
	}
	if got[0].Pos.Line > got[1].Pos.Line {
		t.Errorf("diagnostics out of order: %v", got)
	}
	for _, d := range got {
		if d.Pos.Line == 0 || d.Pos.Column == 0 {
			t.Errorf("diagnostic lacks a position: %+v", d)
		}
	}
}

// TestWalkSkipsNonSource ensures the package walker ignores testdata,
// hidden, and vendor trees so fixtures never break the real run.
func TestWalkSkipsNonSource(t *testing.T) {
	dirs, err := Walk("../..")
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if len(dirs) == 0 {
		t.Fatal("walk found no Go directories")
	}
	for _, d := range dirs {
		base := filepath.Base(d)
		if base == "testdata" || base == ".git" || base == "vendor" {
			t.Errorf("walk descended into %s", d)
		}
	}
	found := false
	for _, d := range dirs {
		if filepath.Base(d) == "lint" {
			found = true
		}
	}
	if !found {
		t.Error("walk missed internal/lint itself")
	}
}

// TestSuppressedSameLine covers the same-line directive placement.
func TestSuppressedSameLine(t *testing.T) {
	d := Diagnostic{Pos: token.Position{Filename: "x.go", Line: 7}, Rule: "floateq"}
	dirs := []*ignoreDirective{{file: "x.go", line: 7, rule: "floateq", reason: "r"}}
	if !suppressed(d, dirs) {
		t.Error("same-line directive did not suppress")
	}
	if !dirs[0].used {
		t.Error("directive not marked used")
	}
	other := Diagnostic{Pos: token.Position{Filename: "y.go", Line: 7}, Rule: "floateq"}
	if suppressed(other, dirs) {
		t.Error("directive leaked across files")
	}
}

// TestProblemMatcherCoversEveryLine loads the CI problem matcher and
// checks that each kind of line simlint prints — finding, malformed
// directive, unknown-rule directive, stale directive, sharedstate —
// matches one of its patterns with file and line captured, so every one
// becomes a PR annotation.
func TestProblemMatcherCoversEveryLine(t *testing.T) {
	data, err := os.ReadFile("../../.github/simlint-problem-matcher.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp string `json:"regexp"`
				File   int    `json:"file"`
				Line   int    `json:"line"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	type pattern struct {
		re         *regexp.Regexp
		file, line int
	}
	var pats []pattern
	for _, m := range cfg.ProblemMatcher {
		for _, p := range m.Pattern {
			pats = append(pats, pattern{regexp.MustCompile(p.Regexp), p.File, p.Line})
		}
	}

	res := analyze(t, SharedState, "routeless/internal/fix", "fix.go", `package fix
var hits int
type listener struct{}
func (listener) OnReceive(rssi float64) {
	hits++
	//lint:ignore sharedstate
	//lint:ignore notarule stale suppression
	//lint:ignore sharedstate run-scoped counter
	_ = rssi
}`)
	eq := analyze(t, FloatEq, "routeless/internal/fix", "fix.go", `package fix
func eq(a, b float64) bool { return a == b }`)
	if len(eq.Diags) != 1 {
		t.Fatalf("floateq fixture: got %v, want one finding", eq.Diags)
	}
	lines := map[string]string{"finding": eq.Diags[0].String()}
	for _, d := range res.Diags {
		kind := d.Rule
		if strings.Contains(d.Message, "malformed") {
			kind = "malformed"
		} else if strings.Contains(d.Message, "unknown rule") {
			kind = "unknown"
		}
		lines[kind] = d.String()
	}
	for _, s := range res.Stale {
		lines["stale"] = s.String()
	}
	for _, kind := range []string{"finding", "sharedstate", "malformed", "unknown", "stale"} {
		line, ok := lines[kind]
		if !ok {
			t.Errorf("fixture printed no %s line: %v", kind, lines)
			continue
		}
		matched := false
		for _, p := range pats {
			if m := p.re.FindStringSubmatch(line); m != nil && strings.HasSuffix(m[p.file], "fix.go") && m[p.line] != "" {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s line matches no problem-matcher pattern: %s", kind, line)
		}
	}
}
