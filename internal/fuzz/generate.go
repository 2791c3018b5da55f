package fuzz

import (
	"math"
	"math/rand"

	"routeless/internal/rng"
	"routeless/internal/scenario"
)

// Limits bounds the generator so a fuzz run's wall time stays
// proportional to its seed count. The zero value means the defaults.
type Limits struct {
	MaxN        int     // largest node count; default 60
	MaxDuration float64 // longest traffic time, s; default 8
	MaxFlows    int     // most CBR flows; default 6
	MaxFaults   int     // most fault specs; default 3
}

func (l Limits) withDefaults() Limits {
	if l.MaxN == 0 {
		l.MaxN = 60
	}
	if l.MaxDuration == 0 {
		l.MaxDuration = 8
	}
	if l.MaxFlows == 0 {
		l.MaxFlows = 6
	}
	if l.MaxFaults == 0 {
		l.MaxFaults = 3
	}
	return l
}

// Generate derives a scenario from the seed — a pure function: the same
// (seed, limits) always yields the same scenario, which is what makes a
// bounded fuzz sweep (-seeds A:B) reproducible end to end. All draws
// come from the seed's StreamFuzz generator child; the scenario's own
// Seed field (driving the simulation streams) is the input seed itself.
//
// The generator draws every dial unconditionally and then reconciles
// against Validate's one cross-field rule (Connected requires uniform
// placement) by switching the feature off, so every generated scenario
// validates cleanly by construction — an invalid-scenario verdict on a
// generated seed means the generator and Validate disagree, which its
// test treats as a bug.
func Generate(seed int64, lim Limits) scenario.Scenario {
	lim = lim.withDefaults()
	r := rng.New(seed, rng.StreamFuzz, scenario.SubGenerate)
	sc := scenario.Scenario{Seed: seed}

	sc.N = 4 + r.Intn(lim.MaxN-3)
	sc.Range = 100 + r.Float64()*150

	// Size the terrain from a target mean degree (5..12) so uniform
	// placements are usually connectable within the builder's 100-draw
	// budget while sparse outliers still occur.
	targetDeg := 5 + r.Float64()*7
	area := float64(sc.N) * math.Pi * sc.Range * sc.Range / targetDeg
	side := math.Sqrt(area)
	// Skew the aspect ratio a little; extreme strips come from the line
	// placement instead.
	aspect := 0.75 + r.Float64()*0.5
	sc.Width = side * aspect
	sc.Height = side / aspect

	switch d := r.Intn(10); {
	case d < 4:
		sc.Placement = scenario.PlaceUniform
	case d < 6:
		sc.Placement = scenario.PlaceCluster
	case d < 8:
		sc.Placement = scenario.PlaceLine
	default:
		sc.Placement = scenario.PlaceGrid
	}
	wantConnected := r.Intn(4) < 3
	wantFading := r.Intn(5) == 0
	// Tiles is the document's ignored compatibility field; drawing it
	// keeps proving that it is ignored (and keeps the draw sequence).
	if r.Intn(4) == 0 {
		sc.Tiles = 2 << r.Intn(2) // 2 or 4
	}
	wantMobility := r.Intn(5) == 0
	moverFrac := r.Float64()
	minSpeed := 0.5 + r.Float64()*2
	maxSpeed := minSpeed + r.Float64()*4

	sc.Protocol = scenario.Protocols[r.Intn(len(scenario.Protocols))]
	sc.Lambda = 0
	if r.Intn(3) == 0 {
		sc.Lambda = 0.002 + r.Float64()*0.02
	}

	nFlows := 1 + r.Intn(lim.MaxFlows)
	seen := make(map[scenario.Flow]bool, nFlows)
	for i := 0; i < nFlows; i++ {
		// Bounded rejection sampling for distinct, non-self flows; a few
		// collisions simply yield fewer flows.
		for try := 0; try < 8; try++ {
			f := scenario.Flow{Src: r.Intn(sc.N), Dst: r.Intn(sc.N)}
			if f.Src == f.Dst || seen[f] {
				continue
			}
			seen[f] = true
			sc.Flows = append(sc.Flows, f)
			break
		}
	}
	sc.Interval = 0.25 + r.Float64()*1.75
	sc.DataSize = 64
	// Duration in 0.5 s quanta keeps the shrinker's time axis discrete.
	sc.Duration = 0.5 * float64(4+r.Intn(int(lim.MaxDuration*2)-3))

	// Connected only applies to uniform placement.
	sc.Connected = wantConnected && sc.Placement == scenario.PlaceUniform
	sc.Fading = wantFading
	if wantMobility {
		movers := 1 + int(moverFrac*float64(sc.N-1))
		sc.Mobility = &scenario.Mobility{Movers: movers, MinSpeed: minSpeed, MaxSpeed: maxSpeed}
	}

	nFaults := r.Intn(lim.MaxFaults + 1)
	for i := 0; i < nFaults; i++ {
		sc.Faults = append(sc.Faults, genFault(r))
	}
	return sc
}

// genFault draws one fault spec from realistic parameter ranges — the
// same shapes the churn study installs, with dials wide enough to reach
// corners the experiments never set.
func genFault(r *rand.Rand) scenario.FaultSpec {
	switch r.Intn(4) {
	case 0:
		return scenario.FaultSpec{Kind: "crash",
			OffFraction: 0.05 + r.Float64()*0.3,
			Cycle:       0.5 + r.Float64()*2,
			Sleep:       r.Intn(2) == 0}
	case 1:
		return scenario.FaultSpec{Kind: "drain",
			CapacityJ: 0.05 + r.Float64()*5,
			Period:    0.1 + r.Float64()*0.9}
	case 2:
		return scenario.FaultSpec{Kind: "degrade",
			OffsetDB: -30 + r.Float64()*20,
			Period:   0.5 + r.Float64()*4,
			Duration: 0.2 + r.Float64()*1.8}
	default:
		return scenario.FaultSpec{Kind: "jam",
			TxPowerDBm: 10 + r.Float64()*20,
			Period:     0.5 + r.Float64()*4,
			Burst:      0.1 + r.Float64()*0.9,
			SpeedMps:   1 + r.Float64()*9}
	}
}
