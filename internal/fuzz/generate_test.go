package fuzz

import (
	"reflect"
	"routeless/internal/scenario"
	"testing"
)

// TestGenerateDeterministic pins the generator as a pure function of
// its seed — the property the whole reproducible-fuzzing story rests
// on.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := Generate(seed, Limits{})
		b := Generate(seed, Limits{})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestGenerateRespectsConstraintMatrix requires every generated
// scenario to validate cleanly: the generator reconciles its draws
// against Validate's rules by construction, so a generated seed
// reporting invalid-scenario means generator and Validate disagree.
func TestGenerateRespectsConstraintMatrix(t *testing.T) {
	lim := Limits{}.withDefaults()
	for seed := int64(1); seed <= 200; seed++ {
		sc := Generate(seed, Limits{})
		if err := sc.Validate(); err != nil {
			t.Errorf("seed %d generated an invalid scenario: %v\n%+v", seed, err, sc)
		}
		if sc.Seed != seed {
			t.Errorf("seed %d: scenario carries Seed=%d", seed, sc.Seed)
		}
		if sc.N > lim.MaxN || sc.Duration > lim.MaxDuration ||
			len(sc.Flows) > lim.MaxFlows || len(sc.Faults) > lim.MaxFaults {
			t.Errorf("seed %d exceeds limits: %+v", seed, sc)
		}
	}
}

// TestGenerateCoversFeatures asserts the generator actually reaches
// each region of the scenario space over a modest seed range — a
// generator that never emits tiles or faults would pass every other
// test while fuzzing nothing.
func TestGenerateCoversFeatures(t *testing.T) {
	seenPlacement := map[string]bool{}
	seenProto := map[string]bool{}
	var tiled, tiledDynamic, faded, mobile, faulted int
	for seed := int64(1); seed <= 300; seed++ {
		sc := Generate(seed, Limits{})
		seenPlacement[sc.Placement] = true
		seenProto[sc.Protocol] = true
		if sc.Tiles > 1 {
			tiled++
			if sc.Fading || sc.Mobility != nil {
				tiledDynamic++
			}
		}
		if sc.Fading {
			faded++
		}
		if sc.Mobility != nil {
			mobile++
		}
		if len(sc.Faults) > 0 {
			faulted++
		}
	}
	for _, p := range scenario.Placements {
		if !seenPlacement[p] {
			t.Errorf("placement %q never generated", p)
		}
	}
	for _, p := range scenario.Protocols {
		if !seenProto[p] {
			t.Errorf("protocol %q never generated", p)
		}
	}
	if tiled == 0 || faded == 0 || mobile == 0 || faulted == 0 {
		t.Errorf("feature coverage holes: tiled=%d faded=%d mobile=%d faulted=%d",
			tiled, faded, mobile, faulted)
	}
	// The tiles dial no longer suppresses anything: some seed must carry
	// it together with fading or mobility, the once-forbidden corner.
	if tiledDynamic == 0 {
		t.Error("no seed in 1:300 emits tiles together with fading or mobility")
	}
}
