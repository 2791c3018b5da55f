package fuzz

import (
	"strings"
	"testing"

	"routeless/internal/node"
	"routeless/internal/scenario"
)

// tiny returns a fast-passing scenario for runner tests.
func tiny() scenario.Scenario {
	return scenario.Scenario{
		Seed: 7, N: 8, Width: 400, Height: 400, Range: 250,
		Placement: scenario.PlaceUniform, Connected: true,
		Protocol: scenario.ProtoCounter1,
		Flows:    []scenario.Flow{{Src: 0, Dst: 5}},
		Interval: 0.5, DataSize: 64, Duration: 1,
	}
}

func TestRunPass(t *testing.T) {
	var r Runner
	res := r.Run(tiny())
	if res.Verdict != VerdictPass {
		t.Fatalf("verdict = %q (%s), want pass", res.Verdict, res.Detail)
	}
	if res.Metrics == nil || res.Metrics.Delivery <= 0 {
		t.Fatalf("pass verdict without usable metrics: %+v", res.Metrics)
	}
	if res.Failed() {
		t.Fatal("pass classified as failure")
	}
}

// TestRunTilesDialIsInert runs the first generated scenarios from the
// once-forbidden corner — the tiles dial together with fading or
// mobility — and demands a pass verdict with the very metrics of the
// same scenario with the dial cleared: the field fuzzes a compatibility
// surface, not an engine.
func TestRunTilesDialIsInert(t *testing.T) {
	var r Runner
	ran := 0
	for seed := int64(1); seed <= 300 && ran < 4; seed++ {
		sc := Generate(seed, Limits{})
		if sc.Tiles <= 1 || !(sc.Fading || sc.Mobility != nil) {
			continue
		}
		ran++
		got := r.Run(sc)
		sc.Tiles = 0
		want := r.Run(sc)
		if got.Verdict != VerdictPass || want.Verdict != VerdictPass {
			t.Fatalf("seed %d: verdicts %q (%s) / %q (%s), want pass", seed,
				got.Verdict, got.Detail, want.Verdict, want.Detail)
		}
		if *got.Metrics != *want.Metrics {
			t.Errorf("seed %d: tiles changed the run: %+v vs %+v", seed, *got.Metrics, *want.Metrics)
		}
	}
	if ran == 0 {
		t.Fatal("no seed in 1:300 draws tiles with fading or mobility")
	}
}

func TestRunInvalidScenario(t *testing.T) {
	var r Runner
	sc := tiny()
	sc.Protocol = "ospf"
	res := r.Run(sc)
	if res.Verdict != VerdictInvalid || !strings.Contains(res.Detail, "unknown protocol") {
		t.Fatalf("verdict = %q (%s), want invalid-scenario", res.Verdict, res.Detail)
	}
	if res.Failed() {
		t.Fatal("invalid scenario classified as simulator failure")
	}
}

// TestRunImpossiblePlacementIsInvalid drives the error-returning
// construction path end to end: a validated scenario whose placement
// cannot connect must come back invalid-scenario, not a panic.
func TestRunImpossiblePlacementIsInvalid(t *testing.T) {
	var r Runner
	sc := tiny()
	sc.N = 3
	sc.Width, sc.Height = 100000, 100000
	sc.Range = 30
	sc.Flows = []scenario.Flow{{Src: 0, Dst: 1}}
	res := r.Run(sc)
	if res.Verdict != VerdictInvalid || !strings.Contains(res.Detail, "no connected placement") {
		t.Fatalf("verdict = %q (%s), want invalid-scenario from placement", res.Verdict, res.Detail)
	}
}

// TestRunVerdictViolation plants a synthetic conservation-law imbalance
// (an extra mac.enqueued with no matching outcome) and expects the
// structured violation verdict.
func TestRunVerdictViolation(t *testing.T) {
	r := Runner{Sabotage: func(run int, nw *node.Network) {
		nw.Metrics.Counter("mac.enqueued").Inc()
	}}
	res := r.Run(tiny())
	if res.Verdict != VerdictViolation {
		t.Fatalf("verdict = %q (%s), want invariant-violation", res.Verdict, res.Detail)
	}
	if len(res.Violations) == 0 || res.Violations[0].Name != "mac-queue" {
		t.Fatalf("violations = %+v, want the mac-queue law", res.Violations)
	}
	if !res.Failed() {
		t.Fatal("violation not classified as failure")
	}
}

// TestRunVerdictDivergence corrupts only the re-run, so the first run
// is clean and the snapshots disagree.
func TestRunVerdictDivergence(t *testing.T) {
	r := Runner{Sabotage: func(run int, nw *node.Network) {
		if run == 1 {
			nw.Metrics.Gauge("fuzztest.poison").Set(1)
		}
	}}
	res := r.Run(tiny())
	if res.Verdict != VerdictDivergence {
		t.Fatalf("verdict = %q (%s), want determinism-divergence", res.Verdict, res.Detail)
	}
}

// TestRunVerdictPanic converts a crash inside the run into a structured
// verdict carrying the stack.
func TestRunVerdictPanic(t *testing.T) {
	r := Runner{Sabotage: func(run int, nw *node.Network) {
		panic("synthetic simulator crash")
	}}
	res := r.Run(tiny())
	if res.Verdict != VerdictPanic {
		t.Fatalf("verdict = %q, want panic", res.Verdict)
	}
	if !strings.Contains(res.Detail, "synthetic simulator crash") ||
		!strings.Contains(res.Detail, "goroutine") {
		t.Fatalf("panic detail lacks value+stack: %.120s", res.Detail)
	}
}

// TestRunDeterministicVerdicts runs a batch of generated seeds twice
// and requires the identical verdict list — the bounded CI mode's
// contract, checked at the library layer.
func TestRunDeterministicVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	lim := Limits{MaxN: 16, MaxDuration: 2, MaxFlows: 2, MaxFaults: 2}
	var r Runner
	verdicts := func() []string {
		var out []string
		for seed := int64(1); seed <= 5; seed++ {
			res := r.Run(Generate(seed, lim))
			out = append(out, res.Verdict+"|"+res.Detail)
		}
		return out
	}
	a, b := verdicts(), verdicts()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d verdict differs between sweeps:\n%s\n%s", i+1, a[i], b[i])
		}
	}
}

// TestRunGeneratedScenariosUnderOracle is the in-tree miniature of the
// CI fuzz job: a handful of generated seeds must all come back pass (or
// invalid-scenario for unbuildable placements — never a failure class).
func TestRunGeneratedScenariosUnderOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	lim := Limits{MaxN: 16, MaxDuration: 2, MaxFlows: 2, MaxFaults: 2}
	var r Runner
	for seed := int64(1); seed <= 8; seed++ {
		res := r.Run(Generate(seed, lim))
		if res.Failed() {
			t.Errorf("seed %d: %s: %s", seed, res.Verdict, res.Detail)
		}
	}
}
