package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"routeless/internal/scenario"
)

// A workload is one named document shape. The names are the contract
// BENCHMARK.json declares; the why is recorded there and in README.md.
type workload struct {
	name string
	why  string
	// doc builds the workload's scenario from a seeded stream. The
	// simulator only ever sees the marshalled document.
	doc func(r *rand.Rand) scenario.Scenario
	// tiles > 1 also runs the document once on the tiled engine in the
	// traced run (static, unfaded documents only).
	tiles int
}

const serveMix = "serve_mix"

// The four sim workloads place nodes on the scenario format's jittered
// lattice (node i sits in cell (i mod cols, i div cols)) at the paper's
// Figure-1 density (~20 neighbours), and keep their traffic from
// colliding with itself: floods leave one source one after another,
// unicast flows all span the same number of cells at a light rate. A
// seed then moves the jitter, the endpoints, the traffic phases and
// every backoff draw, but hardly how much work the document is. On
// uniform placements with concurrent floods the event count of one
// workload moved by ±8 % from seed to seed, and AODV under churn (the
// protocol first meant for churn_mobile) by 25–30 % whatever the load,
// which no regression bound survives; README.md has the measurements.
var workloads = []workload{
	{
		name: "flood_dense",
		why:  "SSAF floods at Figure-1 density, static: the same 400 transmitters speak 40 times each, so phy link-cache hits and the sim heap do the work; geo and build do almost none",
		doc: func(r *rand.Rand) scenario.Scenario {
			sc := base(r, 400, 2000, scenario.ProtoSSAF)
			sc.Flows = flows(r, newLattice(sc.N), 0, 0, 0, 1)
			sc.Interval, sc.Duration = 0.5, 20
			return sc
		},
		tiles: 4,
	},
	{
		name: "route_unicast",
		why:  "Routeless Routing unicast, static: election timers armed and cancelled, arbiter acks, MAC-queue recall; core, routing, mac and sim.Timer churn dominate and fan-out per event is low",
		doc: func(r *rand.Rand) scenario.Scenario {
			sc := base(r, 300, 1500, scenario.ProtoRouteless)
			sc.Flows = flows(r, newLattice(sc.N), 0, 4, 3, 48)
			sc.Interval, sc.Duration = 3, 42
			// Five times the default backoff quantum: elections separate
			// cleanly, and the event count's spread over seeds halves.
			sc.Lambda = 0.05
			return sc
		},
	},
	{
		name: "churn_mobile",
		why:  "counter-1 floods under Rayleigh fading, waypoint motion and crash+degrade faults: MoveTo invalidates link caches and re-bins the grid, so a hit-path win that taxes invalidation shows here",
		doc: func(r *rand.Rand) scenario.Scenario {
			sc := base(r, 200, 1200, scenario.ProtoCounter1)
			sc.Fading = true
			sc.Mobility = &scenario.Mobility{Movers: 100, MinSpeed: 1, MaxSpeed: 10}
			// The endpoints are static and shielded from crashes, as in
			// the churn study, so every flood is sent and can arrive.
			sc.Flows = flows(r, newLattice(sc.N), sc.Mobility.Movers, 0, 0, 1)
			sc.Faults = []scenario.FaultSpec{
				{Kind: "crash", OffFraction: 0.1, Cycle: 10, Exclude: []int{sc.Flows[0].Src, sc.Flows[0].Dst}},
				{Kind: "degrade", OffsetDB: -6, Period: 2, Duration: 1},
			}
			sc.Interval, sc.Duration = 0.5, 20
			return sc
		},
	},
	{
		name: "arena_cold",
		why:  "one arena-wide SSAF flood over 6 400 nodes: set-up and memory dominate (geo index, node arena, registry), each transmitter speaks once so link-cache misses and a deep heap set the run cost",
		doc: func(r *rand.Rand) scenario.Scenario {
			sc := base(r, 6400, 8000, scenario.ProtoSSAF)
			// Endpoints within 4 cells of the centre, so the flood's
			// TTL disc clips the arena the same way for every seed.
			l := newLattice(sc.N)
			f := flows(r, lattice{8, 8, 64}, 0, 0, 0, 1)[0]
			sc.Flows = []scenario.Flow{{
				Src: l.id(l.cols/2-4+f.Src%8, l.rows/2-4+f.Src/8),
				Dst: l.id(l.cols/2-4+f.Dst%8, l.rows/2-4+f.Dst/8),
			}}
			sc.Interval, sc.Duration = 1, 1
			return sc
		},
	},
	{
		name: serveMix,
		why:  "closed loop of 2 HTTP clients against serve.New(2): run, tail, snapshot, resume on small documents, so parse, build, pool hand-off, journal buffering and twin replay do the work, not the hot path",
		doc: func(r *rand.Rand) scenario.Scenario {
			sc := base(r, 60, 800, scenario.ProtoSSAF)
			sc.Placement, sc.Connected = scenario.PlaceUniform, true
			sc.Flows = flows(r, lattice{sc.N, 1, sc.N}, 0, 0, 0, 5)
			sc.Interval, sc.Duration = 0.5, 3
			sc.JournalEvery = 1
			return sc
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// base fills the fields every workload shares: a square arena at the
// paper's 250 m range, lattice placement, and a document seed drawn
// from the benchmark's stream.
func base(r *rand.Rand, n int, side float64, proto string) scenario.Scenario {
	return scenario.Scenario{
		Ver: scenario.Version, Seed: 1 + r.Int63n(1<<40),
		N: n, Width: side, Height: side, Range: 250,
		Placement: scenario.PlaceGrid, Protocol: proto, DataSize: 512,
	}
}

// lattice mirrors the id → cell layout of scenario.PlaceGrid.
type lattice struct{ cols, rows, n int }

func newLattice(n int) lattice {
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	return lattice{cols, (n + cols - 1) / cols, n}
}

func (l lattice) id(x, y int) int { return y*l.cols + x }

// flows draws k distinct src→dst pairs among node ids [lo, n) of a
// lattice. With a displacement, dst lies (±dx, ±dy) or (±dy, ±dx)
// cells from src, so every flow spans the same distance; with none,
// dst is any other node.
func flows(r *rand.Rand, l lattice, lo, dx, dy, k int) []scenario.Flow {
	n := l.n
	seen := make(map[scenario.Flow]bool, k)
	out := make([]scenario.Flow, 0, k)
	for len(out) < k {
		src := lo + r.Intn(n-lo)
		dst := lo + r.Intn(n-lo)
		if dx != 0 || dy != 0 {
			ox, oy := dx, dy
			if r.Intn(2) == 1 {
				ox, oy = dy, dx
			}
			x := src%l.cols + ox*(1-2*r.Intn(2))
			y := src/l.cols + oy*(1-2*r.Intn(2))
			if x < 0 || x >= l.cols || y < 0 || y >= l.rows {
				continue
			}
			dst = l.id(x, y)
		}
		f := scenario.Flow{Src: src, Dst: dst}
		if dst < lo || dst >= n || f.Src == f.Dst || seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	return out
}

// document returns the i-th document of a workload for a benchmark
// seed: a pure function of (workload, seed, i). Sim workloads use only
// i=0; serve_mix posts a fresh i each cycle.
func document(w workload, seed int64, i int) ([]byte, error) {
	var salt int64
	for _, c := range w.name {
		salt = salt*131 + int64(c)
	}
	r := rand.New(rand.NewSource(seed*1_000_003 + salt*7919 + int64(i)))
	data, err := json.Marshal(w.doc(r))
	if err != nil {
		return nil, fmt.Errorf("%s: encoding document: %w", w.name, err)
	}
	return data, nil
}
