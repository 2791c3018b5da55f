package fault_test

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"routeless/internal/fault"
	"routeless/internal/geo"
	"routeless/internal/node"
	doc "routeless/internal/scenario"
)

// tinyNetwork is a minimal sequential field for install-path tests.
func tinyNetwork(t *testing.T) *node.Network {
	t.Helper()
	return node.Must(node.New(node.Config{N: 10, Rect: geo.NewRect(400, 400), Seed: 1, EnsureConnected: true}))
}

// TestValidateRejectsBadSpecs table-drives Validate over every kind's
// nonsensical parameterizations. Each of these previously either
// panicked at install time (drain capacity, crash OffFraction,
// negative periods through sim.NewTicker) or silently fed NaN into the
// event heap; the fuzzer needs them rejected as values.
func TestValidateRejectsBadSpecs(t *testing.T) {
	nan := math.NaN()
	const (
		crash   = fault.KindCrash
		drain   = fault.KindDrain
		degrade = fault.KindDegrade
		jam     = fault.KindJam
	)
	cases := []struct {
		name string
		spec fault.Spec
		want string // substring of the error
	}{
		{"crash off fraction 1", fault.Spec{Kind: crash, OffFraction: 1}, "OffFraction"},
		{"crash off fraction above 1", fault.Spec{Kind: crash, OffFraction: 1.5}, "OffFraction"},
		{"crash off fraction negative", fault.Spec{Kind: crash, OffFraction: -0.1}, "OffFraction"},
		{"crash off fraction NaN", fault.Spec{Kind: crash, OffFraction: nan}, "OffFraction"},
		{"crash negative cycle", fault.Spec{Kind: crash, OffFraction: 0.1, Cycle: -1}, "Cycle"},
		{"drain zero capacity", fault.Spec{Kind: drain, CapacityJ: 0}, "CapacityJ"},
		{"drain negative capacity", fault.Spec{Kind: drain, CapacityJ: -5}, "CapacityJ"},
		{"drain NaN capacity", fault.Spec{Kind: drain, CapacityJ: nan}, "CapacityJ"},
		{"drain infinite capacity", fault.Spec{Kind: drain, CapacityJ: math.Inf(1)}, "CapacityJ"},
		{"drain negative period", fault.Spec{Kind: drain, CapacityJ: 1, Period: -1}, "Period"},
		{"drain NaN period", fault.Spec{Kind: drain, CapacityJ: 1, Period: nan}, "Period"},
		{"degrade NaN offset", fault.Spec{Kind: degrade, OffsetDB: nan}, "OffsetDB"},
		{"degrade negative period", fault.Spec{Kind: degrade, OffsetDB: -25, Period: -2}, "Period"},
		{"degrade negative duration", fault.Spec{Kind: degrade, OffsetDB: -25, Duration: -2}, "Duration"},
		{"jam NaN power", fault.Spec{Kind: jam, TxPowerDBm: nan}, "TxPowerDBm"},
		{"jam negative period", fault.Spec{Kind: jam, TxPowerDBm: 24.5, Period: -1}, "Period"},
		{"jam negative burst", fault.Spec{Kind: jam, TxPowerDBm: 24.5, Burst: -1}, "Burst"},
		{"jam negative speed", fault.Spec{Kind: jam, TxPowerDBm: 24.5, SpeedMps: -3}, "SpeedMps"},
		// A field the kind does not read, whatever its value, is an
		// authoring error: the installer would ignore it silently.
		{"jam with crash and drain fields", fault.Spec{Kind: jam, Cycle: -5, OffFraction: 7, CapacityJ: -1}, "OffFraction"},
		{"crash with a period", fault.Spec{Kind: crash, OffFraction: 0.1, Period: 1}, "Period"},
		{"drain asleep", fault.Spec{Kind: drain, CapacityJ: 1, Sleep: true}, "Sleep"},
		{"degrade NaN speed", fault.Spec{Kind: degrade, OffsetDB: -25, SpeedMps: nan}, "SpeedMps"},
		{"jam with an exclude list", fault.Spec{Kind: jam, Exclude: []int{0}}, "Exclude"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := fault.Validate([]fault.Spec{tc.spec}, 10)
			if err == nil {
				t.Fatalf("Validate accepted %#v", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name field %q", err, tc.want)
			}
		})
	}
}

// TestValidateAcceptsDefaults ensures the zero-meaning-default idiom
// still validates: every spec with in-range fields must pass.
func TestValidateAcceptsDefaults(t *testing.T) {
	specs := []fault.Spec{
		{Kind: fault.KindCrash, OffFraction: 0.1},
		{Kind: fault.KindCrash, OffFraction: 0}, // inert but legal
		{Kind: fault.KindDrain, CapacityJ: 2.5},
		{Kind: fault.KindDegrade, OffsetDB: -25},
		{Kind: fault.KindDegrade, OffsetDB: 0}, // zero offset means default
		{Kind: fault.KindJam, TxPowerDBm: 24.5},
		{Kind: fault.KindJam, TxPowerDBm: 0}, // zero power means default
	}
	if err := fault.Validate(specs, 10); err != nil {
		t.Fatalf("Validate rejected a default-form list: %v", err)
	}
	if err := fault.Validate(nil, 10); err != nil {
		t.Fatalf("Validate rejected the empty list: %v", err)
	}
}

// TestTryInstallRejectsWithoutSideEffects is the fails-pre-fix
// regression for the drain negative-period bug: before validation
// existed, a drain with CapacityJ 1 and Period −1 blew up inside
// sim.NewTicker ("ticker period must be positive") during Install —
// process death on a value problem. Install must reject the spec as
// an error and leave the network byte-identical to one that never saw
// a fault plane.
func TestTryInstallRejectsWithoutSideEffects(t *testing.T) {
	nw := tinyNetwork(t)
	clean, err := json.Marshal(nw.Metrics.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	inj, err := fault.Install(nw, []fault.Spec{{Kind: fault.KindDrain, CapacityJ: 1, Period: -1}})
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
		t.Error("rejected spec mutated the metrics registry")
	}
	// The network must still accept a valid spec afterwards.
	if _, err := fault.Install(nw, []fault.Spec{{Kind: fault.KindCrash, OffFraction: 0.05}}); err != nil {
		t.Errorf("valid spec rejected after a failed Install: %v", err)
	}
}

// TestInstallPanicsOnInvalidPlan pins the backstop: Must(Install)
// still refuses invalid specs loudly (before any process starts),
// preserving the fail-fast contract for hand-wired experiment code.
func TestInstallPanicsOnInvalidPlan(t *testing.T) {
	nw := tinyNetwork(t)
	defer func() {
		if recover() == nil {
			t.Error("Must(Install) did not panic on an invalid spec")
		}
	}()
	node.Must(fault.Install(nw, []fault.Spec{{Kind: fault.KindCrash, OffFraction: 1.0}}))
}

// TestInstallRejectsWhatDocumentRejects holds Install to the document's
// rules: a spec list a scenario document may not carry is refused on a
// built network too, with nothing registered. Install once accepted an
// excluded id outside the network, which the document rejected.
func TestInstallRejectsWhatDocumentRejects(t *testing.T) {
	cases := []struct {
		name string
		spec fault.Spec
	}{
		{"crash exclude out of range", fault.Spec{Kind: fault.KindCrash, OffFraction: 0.1, Exclude: []int{99}}},
		{"exclude on jam", fault.Spec{Kind: fault.KindJam, Exclude: []int{0}}},
		{"exclude on degrade", fault.Spec{Kind: fault.KindDegrade, Exclude: []int{0}}},
		{"unknown kind", fault.Spec{Kind: "meteor"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := node.Must(node.New(node.Config{N: 30, Rect: geo.NewRect(600, 600), Seed: 3, EnsureConnected: true}))
			before := len(nw.Metrics.Snapshot().Samples)
			if inj, err := fault.Install(nw, []fault.Spec{tc.spec}); err == nil || inj != nil {
				t.Fatalf("Install accepted %#v", tc.spec)
			}
			if after := len(nw.Metrics.Snapshot().Samples); after != before {
				t.Fatalf("rejected spec registered %d series", after-before)
			}
			sc := doc.Scenario{
				Seed: 3, N: 30, Width: 600, Height: 600, Range: 250,
				Placement: doc.PlaceUniform, Protocol: doc.ProtoRouteless,
				Flows:    []doc.Flow{{Src: 0, Dst: 29}},
				Interval: 1, DataSize: 64, Duration: 1,
				Faults: []fault.Spec{tc.spec},
			}
			if err := sc.Validate(); !errors.Is(err, doc.ErrInvalid) {
				t.Fatalf("document with %#v: Validate = %v, want ErrInvalid", tc.spec, err)
			}
			sc.Faults = nil
			if err := sc.Validate(); err != nil {
				t.Fatalf("document without the fault rejected: %v", err)
			}
		})
	}
}
