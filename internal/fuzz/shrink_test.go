package fuzz

import (
	"testing"

	"routeless/internal/fault"
	"routeless/internal/node"
	"routeless/internal/scenario"
)

// big returns the oversized failing scenario the shrink tests start
// from.
func big() scenario.Scenario {
	return scenario.Scenario{
		Seed: 3, N: 40, Width: 900, Height: 900, Range: 250,
		Placement: scenario.PlaceUniform, Connected: true,
		Protocol: scenario.ProtoCounter1,
		Flows:    []scenario.Flow{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}, {Src: 4, Dst: 5}},
		Interval: 0.5, DataSize: 64, Duration: 6,
		Mobility: &scenario.Mobility{Movers: 5, MinSpeed: 1, MaxSpeed: 5},
		Faults: []fault.Spec{
			{Kind: fault.KindCrash, OffFraction: 0.2},
			{Kind: fault.KindJam, TxPowerDBm: 20},
		},
	}
}

// TestShrinkPinnedMinimal is the acceptance pin: a synthetic failure
// classifier (fails iff N >= 4, Duration >= 2, and at least one fault
// remains) must reduce the big scenario to exactly the minimal
// (N, duration, plan) form — every axis at its smallest still-failing
// value and every irrelevant feature stripped.
func TestShrinkPinnedMinimal(t *testing.T) {
	failing := func(sc scenario.Scenario) bool {
		return sc.N >= 4 && sc.Duration >= 2 && len(sc.Faults) >= 1
	}
	start := big()
	if !failing(start) {
		t.Fatal("starting scenario must fail the classifier")
	}
	min, evals := Shrink(start, failing, 0)
	if evals == 0 {
		t.Fatal("shrinker did no work")
	}
	if min.N != 4 {
		t.Errorf("minimal N = %d, want 4", min.N)
	}
	if min.Duration != 2 {
		t.Errorf("minimal Duration = %v, want 2", min.Duration)
	}
	if len(min.Flows) != 0 {
		t.Errorf("minimal Flows = %v, want none (flows are irrelevant to the failure)", min.Flows)
	}
	if len(min.Faults) != 1 {
		t.Errorf("minimal plan has %d faults, want 1", len(min.Faults))
	} else if min.Faults[0].Kind != "jam" {
		// Moves drop fault 0 first, so the surviving spec is the later
		// one — pinned so the reduction path stays deterministic.
		t.Errorf("surviving fault = %q, want the jam spec", min.Faults[0].Kind)
	}
	if min.Mobility != nil || min.Fading || min.Tiles > 1 || min.Connected {
		t.Errorf("irrelevant features not stripped: %+v", min)
	}
	if err := min.Validate(); err != nil {
		t.Errorf("minimal scenario invalid: %v", err)
	}
	if !failing(min) {
		t.Error("minimal scenario no longer fails the classifier")
	}
}

// TestShrinkDeterministic: same scenario, same predicate, same result.
func TestShrinkDeterministic(t *testing.T) {
	failing := func(sc scenario.Scenario) bool { return sc.N >= 6 && len(sc.Flows) >= 1 }
	a, _ := Shrink(big(), failing, 0)
	b, _ := Shrink(big(), failing, 0)
	if a.N != b.N || a.Duration != b.Duration || len(a.Flows) != len(b.Flows) || len(a.Faults) != len(b.Faults) {
		t.Fatalf("two reductions differ:\n%+v\n%+v", a, b)
	}
}

// TestShrinkRespectsEvalBudget stops at the budget and still returns a
// failing scenario.
func TestShrinkRespectsEvalBudget(t *testing.T) {
	failing := func(sc scenario.Scenario) bool { return true }
	_, evals := Shrink(big(), failing, 3)
	if evals > 3 {
		t.Fatalf("spent %d evals with budget 3", evals)
	}
}

// TestShrinkValidityPreserved: every candidate the shrinker proposes to
// the predicate is itself a valid scenario, so Runner-driven predicates
// never burn evaluations on invalid forms.
func TestShrinkValidityPreserved(t *testing.T) {
	failing := func(sc scenario.Scenario) bool {
		if err := sc.Validate(); err != nil {
			t.Fatalf("shrinker proposed an invalid scenario: %v\n%+v", err, sc)
		}
		return sc.N >= 3
	}
	min, _ := Shrink(big(), failing, 0)
	if min.N != 3 {
		t.Fatalf("minimal N = %d, want 3", min.N)
	}
}

// TestShrinkWithRunner drives the reducer through the real oracle: a
// sabotage hook plants an invariant violation whenever the network
// still has at least 4 nodes, and the Runner-backed predicate shrinks
// to the pinned minimal form.
func TestShrinkWithRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("each predicate call runs two simulations")
	}
	r := Runner{Sabotage: func(run int, nw *node.Network) {
		if len(nw.Nodes) >= 4 {
			nw.Metrics.Func("mac.enqueued", func() uint64 { return 1 })
		}
	}}
	start := scenario.Scenario{
		Seed: 11, N: 10, Width: 500, Height: 500, Range: 250,
		Placement: scenario.PlaceUniform, Connected: true,
		Protocol: scenario.ProtoCounter1,
		Flows:    []scenario.Flow{{Src: 0, Dst: 3}},
		Interval: 0.5, DataSize: 64, Duration: 1,
	}
	failing := func(sc scenario.Scenario) bool { return r.Run(sc).Verdict == VerdictViolation }
	if !failing(start) {
		t.Fatal("sabotaged start scenario must fail")
	}
	min, _ := Shrink(start, failing, 0)
	if min.N != 4 {
		t.Errorf("minimal N = %d, want 4 (the sabotage threshold)", min.N)
	}
	if min.Duration != 0.5 {
		t.Errorf("minimal Duration = %v, want 0.5", min.Duration)
	}
	if len(min.Flows) != 0 || len(min.Faults) != 0 {
		t.Errorf("irrelevant load survived: %+v", min)
	}
	if got := r.Run(min); got.Verdict != VerdictViolation {
		t.Errorf("minimal scenario verdict = %q, want invariant-violation", got.Verdict)
	}
}
