package main

import (
	"path/filepath"
	"testing"

	"routeless/internal/fuzz"
	"routeless/internal/scenario"
)

// TestSaveFailureWritesShrunkFixture drives the failing-seed path with
// a stub oracle that flags every scenario of at least four nodes: the
// fixture written is the shrunk reproducer, carries the verdict, and
// keeps only the first line of a multi-line detail.
func TestSaveFailureWritesShrunkFixture(t *testing.T) {
	exec := func(sc scenario.Scenario) fuzz.Result {
		if sc.N >= 4 {
			return fuzz.Result{Verdict: fuzz.VerdictViolation, Detail: "law \"x\" violated\nsecond line"}
		}
		return fuzz.Result{Verdict: fuzz.VerdictPass}
	}
	sc := scenario.Scenario{
		Seed: 11, N: 10, Width: 500, Height: 500, Range: 250,
		Placement: scenario.PlaceUniform, Connected: true,
		Protocol: scenario.ProtoCounter1,
		Flows:    []scenario.Flow{{Src: 0, Dst: 3}},
		Interval: 0.5, DataSize: 64, Duration: 1,
	}
	dir := t.TempDir()
	if err := saveFailure(exec, dir, 11, sc, exec(sc), 50); err != nil {
		t.Fatal(err)
	}
	fx, err := fuzz.LoadFixture(filepath.Join(dir, "seed_11_"+fuzz.VerdictViolation+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if fx.Verdict != fuzz.VerdictViolation || fx.Detail != `law "x" violated` {
		t.Fatalf("fixture verdict %q detail %q", fx.Verdict, fx.Detail)
	}
	if fx.Scenario.N != 4 {
		t.Fatalf("fixture keeps N = %d, want the shrunk 4", fx.Scenario.N)
	}
}
