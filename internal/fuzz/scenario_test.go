package fuzz

import (
	"math"
	"strings"
	"testing"

	"routeless/internal/fault"
	"routeless/internal/scenario"
)

// valid returns a small scenario that passes Validate; cases mutate it.
func valid() scenario.Scenario {
	return scenario.Scenario{
		Seed: 1, N: 10, Width: 500, Height: 500, Range: 250,
		Placement: scenario.PlaceUniform, Connected: true,
		Protocol: scenario.ProtoCounter1,
		Flows:    []scenario.Flow{{Src: 0, Dst: 9}},
		Interval: 0.5, DataSize: 64, Duration: 2,
	}
}

func TestValidateAcceptsBaseline(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatalf("baseline scenario rejected: %v", err)
	}
}

func TestValidateConstraintMatrix(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*scenario.Scenario)
		want string // substring of the error; "" expects a valid document
	}{
		{"n too small", func(s *scenario.Scenario) { s.N = 1 }, "N must be at least 2"},
		{"width nan", func(s *scenario.Scenario) { s.Width = math.NaN() }, "Width"},
		{"height negative", func(s *scenario.Scenario) { s.Height = -10 }, "Height"},
		{"range zero", func(s *scenario.Scenario) { s.Range = 0 }, "Range"},
		{"unknown placement", func(s *scenario.Scenario) { s.Placement = "ring" }, "unknown placement"},
		{"connected non-uniform", func(s *scenario.Scenario) { s.Placement = scenario.PlaceGrid }, "Connected requires uniform"},
		{"unknown protocol", func(s *scenario.Scenario) { s.Protocol = "ospf" }, "unknown protocol"},
		{"lambda negative", func(s *scenario.Scenario) { s.Lambda = -1 }, "Lambda"},
		{"interval inf", func(s *scenario.Scenario) { s.Interval = math.Inf(1) }, "Interval"},
		{"duration zero", func(s *scenario.Scenario) { s.Duration = 0 }, "Duration"},
		{"datasize zero", func(s *scenario.Scenario) { s.DataSize = 0 }, "DataSize"},
		{"flow out of range", func(s *scenario.Scenario) { s.Flows = []scenario.Flow{{Src: 0, Dst: 10}} }, "outside"},
		{"flow self loop", func(s *scenario.Scenario) { s.Flows = []scenario.Flow{{Src: 3, Dst: 3}} }, "self-loop"},
		{"flow duplicate", func(s *scenario.Scenario) {
			s.Flows = []scenario.Flow{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}}
		}, "duplicate flow"},
		{"movers zero", func(s *scenario.Scenario) { s.Mobility = &scenario.Mobility{Movers: 0, MaxSpeed: 1} }, "Movers"},
		{"movers beyond n", func(s *scenario.Scenario) { s.Mobility = &scenario.Mobility{Movers: 11, MaxSpeed: 1} }, "Movers"},
		{"speeds inverted", func(s *scenario.Scenario) {
			s.Mobility = &scenario.Mobility{Movers: 1, MinSpeed: 5, MaxSpeed: 1}
		}, "speeds"},
		{"tiles negative", func(s *scenario.Scenario) { s.Tiles = -1 }, "Tiles"},
		// Tiles is an ignored compatibility field: it constrains nothing.
		{"tiled fading", func(s *scenario.Scenario) { s.Connected = false; s.Tiles = 4; s.Fading = true }, ""},
		{"tiled mobility", func(s *scenario.Scenario) {
			s.Connected = false
			s.Tiles = 4
			s.Mobility = &scenario.Mobility{Movers: 1, MaxSpeed: 1}
		}, ""},
		{"unknown fault kind", func(s *scenario.Scenario) { s.Faults = []fault.Spec{{Kind: "meteor"}} }, "unknown fault kind"},
		{"bad fault numerics", func(s *scenario.Scenario) {
			s.Faults = []fault.Spec{{Kind: fault.KindDrain, CapacityJ: -1}}
		}, "CapacityJ"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := valid()
			tc.mut(&sc)
			err := sc.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("scenario rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("scenario accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsFullFeatureSet(t *testing.T) {
	sc := valid()
	sc.Connected = false
	sc.Placement = scenario.PlaceCluster
	sc.Fading = true
	sc.Mobility = &scenario.Mobility{Movers: 3, MinSpeed: 1, MaxSpeed: 5}
	sc.Faults = []fault.Spec{
		{Kind: fault.KindCrash, OffFraction: 0.1, Cycle: 1},
		{Kind: fault.KindJam, TxPowerDBm: 20, Period: 1, Burst: 0.2, SpeedMps: 3},
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("full-feature scenario rejected: %v", err)
	}
	// The same scenario carrying the ignored tiles field is also fine.
	sc.Tiles = 4
	if err := sc.Validate(); err != nil {
		t.Fatalf("tiled scenario rejected: %v", err)
	}
}

// TestPlanConversion builds a document naming every fault kind: the
// list validates, and the run installs it — one crash process per
// node — and keeps the conservation laws.
func TestPlanConversion(t *testing.T) {
	sc := valid()
	sc.Faults = []fault.Spec{
		{Kind: fault.KindCrash, OffFraction: 0.2},
		{Kind: fault.KindDrain, CapacityJ: 1},
		{Kind: fault.KindDegrade, OffsetDB: -20},
		{Kind: fault.KindJam, TxPowerDBm: 15},
	}
	if err := fault.Validate(sc.Faults, sc.N); err != nil {
		t.Fatalf("fault list invalid: %v", err)
	}
	r, err := scenario.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Faults().Crashes()); got != sc.N {
		t.Fatalf("installed %d crash processes, want %d", got, sc.N)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatalf("run under every fault kind violated invariants: %v", err)
	}
}
