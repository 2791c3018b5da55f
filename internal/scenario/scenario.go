// Package scenario is the single, versioned description of one
// simulation run: topology, placement, mobility, fading, traffic
// flows, and a typed fault plan, as one validated JSON document. It is
// the unified entry point every consumer shares — the fuzzer generates
// into it, `wmansim -scenario` loads it, `simserve` accepts it over
// HTTP, and snapshots embed it — so the simulator's input constraints
// (bounds, Connected ⇒ uniform placement) live in exactly one place:
// Validate.
//
// Determinism contract: a Scenario is a pure value, and Build derives
// every random stream of the run from Scenario.Seed. Two builds of one
// scenario advance bit-for-bit identically; that property is what makes
// the replay-verified snapshots in internal/snapshot possible at all.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"routeless/internal/fault"
	"routeless/internal/geo"
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// Version is the current scenario document version. Documents carrying
// a larger version are rejected by Validate; documents with version 0
// (the field omitted — every fixture written before versioning) parse
// as version-1 documents, which they are.
const Version = 1

// Typed errors along the scenario API path. Everything Validate or
// Parse returns wraps ErrInvalid or ErrParse, so callers can
// discriminate "your document is wrong" from simulator failures without
// string matching.
var (
	// ErrInvalid marks a structurally well-formed document that violates
	// the simulator's constraint matrix.
	ErrInvalid = errors.New("scenario: invalid")
	// ErrParse marks input that is not a well-formed scenario document
	// at all (bad JSON, unknown fields, trailing garbage).
	ErrParse = errors.New("scenario: malformed document")
)

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// Protocol names a scenario's network-layer protocol.
const (
	ProtoCounter1  = "counter1"
	ProtoSSAF      = "ssaf"
	ProtoRouteless = "routeless"
	ProtoAODV      = "aodv"
	ProtoGradient  = "gradient"
)

// Placement names a scenario's topology style. Uniform placement is
// what the paper's figures use; the others reach the adversarial
// shapes a hand-picked evaluation never does — tight clusters bridged
// by single links, boundary-dense chains, near-regular lattices.
const (
	PlaceUniform = "uniform"
	PlaceCluster = "cluster"
	PlaceLine    = "line"
	PlaceGrid    = "grid"
)

// Flow is one CBR connection of the scenario's traffic mix.
type Flow struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// Mobility switches on random-waypoint motion for the first Movers
// nodes.
type Mobility struct {
	Movers   int     `json:"movers"`
	MinSpeed float64 `json:"min_speed"` // m/s
	MaxSpeed float64 `json:"max_speed"` // m/s
}

// FaultSpec is the data form of one fault-plane spec: fully
// JSON-serializable, convertible to the typed fault.Plan entry. Fields
// irrelevant to a Kind are ignored by it; zero values mean the fault
// plane's defaults.
type FaultSpec struct {
	Kind string `json:"kind"` // "crash" | "drain" | "degrade" | "jam"

	OffFraction float64 `json:"off_fraction,omitempty"` // crash
	Cycle       float64 `json:"cycle,omitempty"`        // crash
	Sleep       bool    `json:"sleep,omitempty"`        // crash
	CapacityJ   float64 `json:"capacity_j,omitempty"`   // drain
	OffsetDB    float64 `json:"offset_db,omitempty"`    // degrade
	TxPowerDBm  float64 `json:"tx_power_dbm,omitempty"` // jam
	SpeedMps    float64 `json:"speed_mps,omitempty"`    // jam
	Period      float64 `json:"period,omitempty"`       // drain, degrade, jam
	Duration    float64 `json:"duration,omitempty"`     // degrade
	Burst       float64 `json:"burst,omitempty"`        // jam

	// Exclude shields the listed node ids from node-targeting faults
	// (crash, drain) — the experiment harness uses it to keep traffic
	// endpoints alive under churn.
	Exclude []int `json:"exclude,omitempty"`
}

// spec converts the data form to the typed fault-plane spec.
func (f FaultSpec) spec() (fault.Spec, error) {
	excl := make([]packet.NodeID, len(f.Exclude))
	for i, id := range f.Exclude {
		excl[i] = packet.NodeID(id)
	}
	if len(excl) == 0 {
		excl = nil
	}
	switch f.Kind {
	case "crash":
		return fault.CrashSpec{OffFraction: f.OffFraction, Cycle: f.Cycle, Sleep: f.Sleep, Exclude: excl}, nil
	case "drain":
		return fault.DrainSpec{CapacityJ: f.CapacityJ, Period: sim.Time(f.Period), Exclude: excl}, nil
	case "degrade":
		return fault.DegradeSpec{OffsetDB: f.OffsetDB, Period: sim.Time(f.Period), Duration: sim.Time(f.Duration)}, nil
	case "jam":
		return fault.JamSpec{TxPowerDBm: f.TxPowerDBm, Period: sim.Time(f.Period), Burst: sim.Time(f.Burst), SpeedMps: f.SpeedMps}, nil
	default:
		return nil, fmt.Errorf("unknown fault kind %q", f.Kind)
	}
}

// Scenario fully describes one simulation run: everything Build needs
// is a field here, so a scenario serializes to a replayable JSON
// document and two runs of one scenario are bitwise identical.
type Scenario struct {
	// Ver is the document version; 0 and 1 both mean version 1 (the
	// field predates nothing — 0 is simply the omitted form).
	Ver int `json:"version,omitempty"`

	// Seed drives every random stream of the simulation itself
	// (placement, traffic phases, MAC backoffs, fault processes).
	Seed int64 `json:"seed"`

	N         int     `json:"n"`
	Width     float64 `json:"width"`  // terrain width, m
	Height    float64 `json:"height"` // terrain height, m
	Range     float64 `json:"range"`  // calibrated tx range, m
	Placement string  `json:"placement"`
	// Connected regenerates uniform placements until the unit-disk
	// graph is connected; only valid with uniform placement (explicit
	// position styles are used as drawn — disconnection is part of the
	// adversarial space they exist to reach).
	Connected bool `json:"connected,omitempty"`
	// Fading adds Rayleigh small-scale fading.
	Fading bool `json:"fading,omitempty"`
	// Tiles is accepted for Version-1 documents written when a tiled
	// engine existed and is otherwise ignored: every run is sequential,
	// and a tiled run was byte-identical to it by contract.
	Tiles int `json:"tiles,omitempty"`

	Protocol string  `json:"protocol"`
	Lambda   float64 `json:"lambda,omitempty"` // backoff quantum, s; 0 = protocol default

	Flows    []Flow  `json:"flows"`
	Interval float64 `json:"interval"`  // CBR interval, s
	DataSize int     `json:"data_size"` // CBR payload, bytes
	Duration float64 `json:"duration"`  // traffic seconds; runs drain 5 s past it

	// JournalEvery > 0 makes a journaled run emit a metrics snapshot
	// record at every multiple of this interval — the epoch stream a
	// live journal consumer (simserve) tails, and the record boundary
	// snapshots align with.
	JournalEvery float64 `json:"journal_every,omitempty"`

	Mobility *Mobility   `json:"mobility,omitempty"`
	Faults   []FaultSpec `json:"faults,omitempty"`
}

// Rect returns the scenario terrain.
func (sc Scenario) Rect() geo.Rect { return geo.NewRect(sc.Width, sc.Height) }

// Plan converts the scenario's fault specs into a typed fault.Plan.
func (sc Scenario) Plan() (fault.Plan, error) {
	if len(sc.Faults) == 0 {
		return nil, nil
	}
	plan := make(fault.Plan, 0, len(sc.Faults))
	for i, f := range sc.Faults {
		s, err := f.spec()
		if err != nil {
			return nil, fmt.Errorf("fault %d: %w", i, err)
		}
		plan = append(plan, s)
	}
	return plan, nil
}

// Parse decodes and validates one scenario document. Decoding is
// strict: unknown fields and trailing input are rejected (wrapping
// ErrParse), and a document that decodes but violates the constraint
// matrix wraps ErrInvalid.
func Parse(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("%w: %v", ErrParse, err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil || len(trailing) > 0 {
		return Scenario{}, fmt.Errorf("%w: trailing data after document", ErrParse)
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// Protocols and Placements are the closed vocabularies Validate checks
// against, exported so generators (the fuzzer) can draw from the same
// list Validate accepts. Callers must not mutate them.
var Protocols = []string{ProtoCounter1, ProtoSSAF, ProtoRouteless, ProtoAODV, ProtoGradient}
var Placements = []string{PlaceUniform, PlaceCluster, PlaceLine, PlaceGrid}

func posFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return invalidf("%s must be positive and finite, got %v", name, v)
	}
	return nil
}

// Validate checks the scenario against the simulator's constraint
// matrix and returns the first problem found, wrapping ErrInvalid. A
// scenario that validates cleanly must never crash the simulator:
// anything that still goes wrong downstream is a simulator bug by
// definition, which is exactly the discrimination the fuzzer's
// verdicts rest on.
func (sc Scenario) Validate() error {
	if sc.Ver < 0 || sc.Ver > Version {
		return invalidf("unsupported document version %d (this build speaks up to %d)", sc.Ver, Version)
	}
	if sc.N < 2 {
		return invalidf("N must be at least 2, got %d", sc.N)
	}
	if sc.N > 1_000_000 {
		return invalidf("N=%d exceeds the sanity cap", sc.N)
	}
	if err := posFinite("Width", sc.Width); err != nil {
		return err
	}
	if err := posFinite("Height", sc.Height); err != nil {
		return err
	}
	if err := posFinite("Range", sc.Range); err != nil {
		return err
	}
	if !slices.Contains(Placements, sc.Placement) {
		return invalidf("unknown placement %q", sc.Placement)
	}
	if sc.Connected && sc.Placement != PlaceUniform {
		return invalidf("Connected requires uniform placement, got %q", sc.Placement)
	}
	if !slices.Contains(Protocols, sc.Protocol) {
		return invalidf("unknown protocol %q", sc.Protocol)
	}
	if math.IsNaN(sc.Lambda) || math.IsInf(sc.Lambda, 0) || sc.Lambda < 0 {
		return invalidf("Lambda must be a finite non-negative number, got %v", sc.Lambda)
	}
	if err := posFinite("Interval", sc.Interval); err != nil {
		return err
	}
	if err := posFinite("Duration", sc.Duration); err != nil {
		return err
	}
	if sc.DataSize <= 0 {
		return invalidf("DataSize must be positive, got %d", sc.DataSize)
	}
	if math.IsNaN(sc.JournalEvery) || math.IsInf(sc.JournalEvery, 0) || sc.JournalEvery < 0 {
		return invalidf("JournalEvery must be a finite non-negative number, got %v", sc.JournalEvery)
	}
	seen := make(map[Flow]bool, len(sc.Flows))
	for i, f := range sc.Flows {
		if f.Src < 0 || f.Src >= sc.N || f.Dst < 0 || f.Dst >= sc.N {
			return invalidf("flow %d (%d→%d) references nodes outside [0,%d)", i, f.Src, f.Dst, sc.N)
		}
		if f.Src == f.Dst {
			return invalidf("flow %d is a self-loop at node %d", i, f.Src)
		}
		if seen[f] {
			return invalidf("duplicate flow %d→%d", f.Src, f.Dst)
		}
		seen[f] = true
	}
	if m := sc.Mobility; m != nil {
		if m.Movers < 1 || m.Movers > sc.N {
			return invalidf("Mobility.Movers must be in [1,%d], got %d", sc.N, m.Movers)
		}
		if math.IsNaN(m.MinSpeed) || math.IsInf(m.MinSpeed, 0) || m.MinSpeed < 0 ||
			math.IsNaN(m.MaxSpeed) || math.IsInf(m.MaxSpeed, 0) || m.MaxSpeed < m.MinSpeed {
			return invalidf("mobility speeds must satisfy 0 <= min <= max and be finite, got [%v,%v]",
				m.MinSpeed, m.MaxSpeed)
		}
	}
	if sc.Tiles < 0 {
		return invalidf("Tiles must be non-negative, got %d", sc.Tiles)
	}
	for i, f := range sc.Faults {
		if len(f.Exclude) > 0 && f.Kind != "crash" && f.Kind != "drain" {
			return invalidf("fault %d: Exclude applies only to node-targeting kinds (crash, drain), not %q", i, f.Kind)
		}
		for _, id := range f.Exclude {
			if id < 0 || id >= sc.N {
				return invalidf("fault %d: excluded node %d outside [0,%d)", i, id, sc.N)
			}
		}
	}
	plan, err := sc.Plan()
	if err != nil {
		return fmt.Errorf("%w: %s", ErrInvalid, err)
	}
	if err := plan.Validate(); err != nil {
		return fmt.Errorf("%w: %s", ErrInvalid, err)
	}
	return nil
}
