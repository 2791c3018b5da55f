package fault_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"routeless/internal/fault"
	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/sim"
)

// tinyNetwork is a minimal sequential field for install-path tests.
func tinyNetwork(t *testing.T) *node.Network {
	t.Helper()
	return node.Must(node.New(node.Config{N: 10, Rect: geo.NewRect(400, 400), Seed: 1, EnsureConnected: true}))
}

// TestValidateRejectsBadSpecs table-drives Plan.Validate over every
// spec type's nonsensical parameterizations. Each of these previously
// either panicked at install time (Drain capacity, Crash OffFraction,
// negative periods through sim.NewTicker) or silently fed NaN into the
// event heap; the fuzzer needs them rejected as values.
func TestValidateRejectsBadSpecs(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		plan fault.Plan
		want string // substring of the error
	}{
		{"crash off fraction 1", fault.Plan{fault.CrashSpec{OffFraction: 1}}, "OffFraction"},
		{"crash off fraction above 1", fault.Plan{fault.CrashSpec{OffFraction: 1.5}}, "OffFraction"},
		{"crash off fraction negative", fault.Plan{fault.CrashSpec{OffFraction: -0.1}}, "OffFraction"},
		{"crash off fraction NaN", fault.Plan{fault.CrashSpec{OffFraction: nan}}, "OffFraction"},
		{"crash negative cycle", fault.Plan{fault.CrashSpec{OffFraction: 0.1, Cycle: -1}}, "Cycle"},
		{"drain zero capacity", fault.Plan{fault.DrainSpec{CapacityJ: 0}}, "CapacityJ"},
		{"drain negative capacity", fault.Plan{fault.DrainSpec{CapacityJ: -5}}, "CapacityJ"},
		{"drain NaN capacity", fault.Plan{fault.DrainSpec{CapacityJ: nan}}, "CapacityJ"},
		{"drain infinite capacity", fault.Plan{fault.DrainSpec{CapacityJ: math.Inf(1)}}, "CapacityJ"},
		{"drain negative period", fault.Plan{fault.DrainSpec{CapacityJ: 1, Period: -1}}, "Period"},
		{"drain NaN period", fault.Plan{fault.DrainSpec{CapacityJ: 1, Period: sim.Time(nan)}}, "Period"},
		{"degrade NaN offset", fault.Plan{fault.DegradeSpec{OffsetDB: nan}}, "OffsetDB"},
		{"degrade negative period", fault.Plan{fault.DegradeSpec{OffsetDB: -25, Period: -2}}, "Period"},
		{"degrade negative duration", fault.Plan{fault.DegradeSpec{OffsetDB: -25, Duration: -2}}, "Duration"},
		{"jam NaN power", fault.Plan{fault.JamSpec{TxPowerDBm: nan}}, "TxPowerDBm"},
		{"jam negative period", fault.Plan{fault.JamSpec{TxPowerDBm: 24.5, Period: -1}}, "Period"},
		{"jam negative burst", fault.Plan{fault.JamSpec{TxPowerDBm: 24.5, Burst: -1}}, "Burst"},
		{"jam negative speed", fault.Plan{fault.JamSpec{TxPowerDBm: 24.5, SpeedMps: -3}}, "SpeedMps"},
		{"jam negative stop", fault.Plan{fault.JamSpec{TxPowerDBm: 24.5, Stop: -1}}, "Stop"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %#v", tc.plan)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name field %q", err, tc.want)
			}
		})
	}
}

// TestValidateAcceptsDefaults ensures the zero-meaning-default idiom
// still validates: every constructor-produced spec with in-range
// arguments must pass.
func TestValidateAcceptsDefaults(t *testing.T) {
	plan := fault.Plan{
		fault.CrashSpec{OffFraction: 0.1},
		fault.CrashSpec{OffFraction: 0}, // inert but legal
		fault.DrainSpec{CapacityJ: 2.5},
		fault.DegradeSpec{OffsetDB: -25},
		fault.DegradeSpec{OffsetDB: 0}, // zero offset means default
		fault.JamSpec{TxPowerDBm: 24.5},
		fault.JamSpec{TxPowerDBm: 0}, // zero power means default
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("Validate rejected a default-form plan: %v", err)
	}
	if err := fault.Plan(nil).Validate(); err != nil {
		t.Fatalf("Validate rejected the empty plan: %v", err)
	}
}

// TestTryInstallRejectsWithoutSideEffects is the fails-pre-fix
// regression for the DrainSpec negative-period bug: before validation
// existed, DrainSpec{CapacityJ: 1, Period: -1} blew up inside
// sim.NewTicker ("ticker period must be positive") during Install —
// process death on a value problem. Install must reject the plan as
// an error and leave the network byte-identical to one that never saw
// a fault plane.
func TestTryInstallRejectsWithoutSideEffects(t *testing.T) {
	nw := tinyNetwork(t)
	clean, err := json.Marshal(nw.Metrics.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	inj, err := fault.Install(nw, fault.Plan{fault.DrainSpec{CapacityJ: 1, Period: -1}})
	if err == nil {
		t.Fatal("Install accepted a negative drain period")
	}
	if inj != nil {
		t.Error("Install returned a non-nil injector alongside an error")
	}

	after, err := json.Marshal(nw.Metrics.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(clean) != string(after) {
		t.Error("rejected plan mutated the metrics registry")
	}
	// The network must still accept a valid plan afterwards.
	if _, err := fault.Install(nw, fault.Plan{fault.CrashSpec{OffFraction: 0.05}}); err != nil {
		t.Errorf("valid plan rejected after a failed Install: %v", err)
	}
}

// TestInstallPanicsOnInvalidPlan pins the backstop: Must(Install)
// still refuses invalid plans loudly (before any process starts),
// preserving the fail-fast contract for hand-wired experiment code.
func TestInstallPanicsOnInvalidPlan(t *testing.T) {
	nw := tinyNetwork(t)
	defer func() {
		if recover() == nil {
			t.Error("Must(Install) did not panic on an invalid plan")
		}
	}()
	node.Must(fault.Install(nw, fault.Plan{fault.CrashSpec{OffFraction: 1.0}}))
}
