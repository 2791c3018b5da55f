package experiments

import (
	"routeless/internal/core"
	"routeless/internal/packet"
	"routeless/internal/rng"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/sweep"
)

// abl1Grid reuses the Figure 1 rig — with the full data packet size —
// for SSAF without and with duplicate cancellation.
func abl1Grid(cfg Fig1Config) grid {
	cfg = cfg.withDefaults()
	return grid{
		name:     "abl1",
		title:    "ABL1 — SSAF vs SSAF-C (duplicate cancellation)",
		config:   cfg,
		xcol:     "interval_s",
		xname:    "interval",
		xs:       anys(cfg.Intervals),
		variants: []variant{{"ssaf", "ssaf"}, {"ssafc", "ssaf-c"}},
		seeds:    cfg.Seeds,
		cols:     []col{macCol, deliveryCol, delayCol},
		spec: func(x, v int, seed int64) scenario.Scenario {
			sc := fig1Spec(cfg, scenario.ProtoSSAF, cfg.Intervals[x], packet.SizeData, seed)
			if v == 1 {
				sc.Flood = &scenario.Flood{Cancel: true}
			}
			return sc
		},
	}
}

// abl2Grid sweeps Routeless λ on the Figure 3 rig at AblPairs pairs:
// the §4.1 tradeoff (small λ collides, large λ delays).
func abl2Grid(cfg Fig34Config) grid {
	cfg = cfg.withDefaults()
	ms := make([]float64, len(cfg.Lambdas))
	for i, l := range cfg.Lambdas {
		ms[i] = l.Millis()
	}
	return grid{
		name:     "abl2",
		title:    "ABL2 — Routeless Routing λ sweep (§4.1 tradeoff)",
		config:   cfg,
		xcol:     "lambda_ms",
		xname:    "lambda_ms",
		xs:       anys(ms),
		variants: []variant{{"rr", scenario.ProtoRouteless}},
		seeds:    cfg.Seeds,
		cols:     []col{delayCol, deliveryCol, macCol},
		spec: func(x, _ int, seed int64) scenario.Scenario {
			run := cfg
			run.Lambda = cfg.Lambdas[x]
			return routingCell(run, scenario.ProtoRouteless, cfg.AblPairs, 0, seed)
		},
	}
}

// --- ABL3: election outcome probabilities ------------------------------

// Abl3Config measures leader-election outcomes on the abstract medium
// as neighborhood size grows: Trials independent cliques per size, each
// run under every variant in abl3Variants.
type Abl3Config struct {
	Sizes  []int // x-axis clique sizes; default {2, 5, 10, 20, 50}
	Trials int   // cliques per size; default 200
	Seed   int64 // master seed every trial derives its streams from
}

// abl3Lambda is the election backoff bound every trial uses.
const abl3Lambda sim.Time = 10e-3

func (c Abl3Config) withDefaults() Abl3Config {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{2, 5, 10, 20, 50}
	}
	if c.Trials == 0 {
		c.Trials = 200
	}
	return c
}

// abl3Variant is one backoff metric and per-link loss every clique runs
// under. The uniform metric is the classic random backoff on [0, λ);
// the gradient metric puts contender i i+1 hops out with 1 expected,
// disjoint priority bands that model an ideal prioritized election.
type abl3Variant struct {
	metric string // "uniform" or "gradient"
	loss   float64
}

// abl3Variants returns the variants abl3 tabulates, in table order.
func abl3Variants() []abl3Variant {
	return []abl3Variant{{"uniform", 0}, {"gradient", 0}, {"uniform", 0.1}, {"gradient", 0.1}}
}

// trial is the variant's election among n contenders.
func (v abl3Variant) trial(n int) ElectionTrial {
	t := ElectionTrial{N: n, Policy: core.Uniform{Max: abl3Lambda}, Lambda: abl3Lambda, Loss: v.loss, MaxRetries: 20}
	if v.metric == "gradient" {
		t.Policy = core.HopGradient{Lambda: abl3Lambda}
		t.First = make(map[packet.NodeID]core.Context, n)
		for i := 0; i < n; i++ {
			t.First[packet.NodeID(i)] = core.Context{HopsToTarget: i + 1, ExpectedHops: 1}
		}
	}
	return t
}

// abl3Out is one (variant, clique size) mean outcome: the share of
// trials with a single round-1 leader, the share left with none by a
// collision or never resolved, the arbiter rounds and the milliseconds
// to the acknowledged leader over the elected trials, the broadcasts
// (announcements, acks and syncs) per trial, and the elected trials.
type abl3Out struct {
	single, none, rounds, latencyMS, bcasts, elected float64
}

// runAbl3 runs one sweep cell per (size, variant, trial) and returns
// the mean outcome per variant and size, and the kernel events the
// trials executed. Every variant of a trial draws from the same
// stream, so the variants are paired draws.
func runAbl3(cfg Abl3Config, workers int) ([][]abl3Out, uint64) {
	cfg = cfg.withDefaults()
	variants := abl3Variants()
	nv := len(variants)
	// The cells' seeds go unused: each trial derives its stream from
	// (seed, size index, trial index).
	cells := sweep.Cells("abl3", len(cfg.Sizes)*nv, make([]int64, cfg.Trials))
	results := sweep.Run(workers, cells, func(ctx *sweep.Context, _ int, c sweep.Cell) ElectionResult {
		size := c.Point / nv
		t := variants[c.Point%nv].trial(cfg.Sizes[size])
		return t.Run(rng.Derive(cfg.Seed, uint64(size), uint64(c.Rep)), ctx.Runtime().Events)
	})
	means := make([][]abl3Out, nv)
	for v := range means {
		means[v] = make([]abl3Out, len(cfg.Sizes))
	}
	var events uint64
	for i, c := range cells {
		v, size, r := c.Point%nv, c.Point/nv, results[i]
		m := &means[v][size]
		switch {
		case r.Winners == 1:
			m.single++
		case r.Winners == 0 || !r.Elected:
			m.none++
		}
		if r.Elected {
			m.elected++
			m.rounds += float64(r.Rounds)
			m.latencyMS += float64(r.ElectedAt) * 1e3
		}
		m.bcasts += float64(r.Broadcasts)
		events += r.Events
	}
	trials := float64(cfg.Trials)
	for v := range means {
		for size := range means[v] {
			m := &means[v][size]
			e := max(m.elected, 1) // rounds and latency are 0 when none elected
			m.single, m.none, m.bcasts = m.single/trials, m.none/trials, m.bcasts/trials
			m.rounds, m.latencyMS = m.rounds/e, m.latencyMS/e
		}
	}
	return means, events
}

// ElectionTrial is one §2 election on the abstract medium: contenders
// 0..N-1 and arbiter N in one clique. Latency λ/4 makes near-ties
// collide, as real airtime does; the collision window is λ/20, and the
// arbiter re-triggers after 4λ of silence, at most MaxRetries times.
type ElectionTrial struct {
	N          int
	Policy     core.BackoffPolicy
	Lambda     sim.Time
	Loss       float64 // per-link drop probability
	MaxRetries int
	First      map[packet.NodeID]core.Context // if set, starts round 1; later rounds reuse it
}

// ElectionResult is what one trial observed.
type ElectionResult struct {
	Winners    int      // contenders whose final outcome is a round-1 win
	Elected    bool     // the arbiter acknowledged a leader
	Rounds     int      // SYNC broadcasts, the first and every re-trigger
	Broadcasts int      // every message sent on the medium
	ElectedAt  sim.Time // when the arbiter acknowledged, if Elected
	Events     uint64   // kernel events the trial executed
}

// Run runs the trial to quiescence on a kernel drawing events from pool
// (nil: a private one). Every loss and backoff is drawn from the
// medium's stream, rng.New(seed).
func (t ElectionTrial) Run(seed int64, pool *sim.EventPool) ElectionResult {
	k := sim.NewKernelPooled(pool)
	cl := core.NewCluster(k, t.N+1, t.Lambda/4, t.Lambda/20, t.Loss, rng.New(seed))
	cl.ConnectAll()
	electors := make([]*core.Elector, t.N)
	for i := range electors {
		electors[i] = core.NewElector(k, packet.NodeID(i), cl, t.Policy)
		cl.AttachElector(electors[i])
	}
	arb := core.NewArbiter(k, packet.NodeID(t.N), cl, t.Lambda*4)
	arb.MaxRetries = t.MaxRetries
	cl.AttachArbiter(arb)
	var res ElectionResult
	arb.OnElected = func(packet.NodeID, uint32) { res.ElectedAt = k.Now() }
	if t.First != nil {
		cl.TriggerAll(1, t.First)
	}
	arb.Trigger()
	k.Run()
	for _, e := range electors {
		if o := e.Current(); o.Won && o.Round == 1 {
			res.Winners++
		}
	}
	res.Elected = arb.Leader() != packet.None
	res.Rounds = int(arb.Count(core.Triggers))
	res.Broadcasts = int(cl.Count(core.Broadcasts))
	res.Events = k.Processed()
	return res
}

// abl3Table renders the election study, one row per (variant, clique
// size), variant-major.
func abl3Table(sizes []int, means [][]abl3Out) *stats.Table {
	t := stats.NewTable(
		"ABL3 — local leader election outcomes vs neighborhood size, backoff metric and link loss (arbiter on)",
		"metric", "loss", "nodes", "p_single_leader_r1", "p_collision_r1", "mean_rounds", "mean_broadcasts", "mean_latency_ms",
	)
	for v, variant := range abl3Variants() {
		for i, m := range means[v] {
			t.AddRow(variant.metric, variant.loss, sizes[i], m.single, m.none, m.rounds, m.bcasts, m.latencyMS)
		}
	}
	return t
}

// abl4Grid reuses the Figure 3 rig with Gradient Routing in AODV's
// seat (§4.4 congestion claim).
func abl4Grid(cfg Fig34Config) grid {
	cfg = cfg.withDefaults()
	variants := []variant{{"rr", scenario.ProtoRouteless}, {"grad", scenario.ProtoGradient}}
	return grid{
		name:     "abl4",
		title:    "ABL4 — Routeless Routing vs Gradient Routing (§4.4 congestion claim)",
		config:   cfg,
		xcol:     "pairs",
		xname:    "pairs",
		xs:       anys(cfg.Pairs),
		variants: variants,
		seeds:    cfg.Seeds,
		cols:     []col{macCol, deliveryCol, delayCol},
		spec: func(x, v int, seed int64) scenario.Scenario {
			return routingCell(cfg, variants[v].name, cfg.Pairs[x], 0, seed)
		},
	}
}

// abl5Grid runs the Figure 3 rig at AblPairs pairs with non-endpoint
// nodes duty-cycle sleeping instead of failing: §4.2's claim that "any
// node, even if it is on the route, can freely switch to a sleep or a
// standby mode to save energy".
func abl5Grid(cfg Fig34Config) grid {
	cfg = cfg.withDefaults()
	return grid{
		name:     "abl5",
		title:    "ABL5 — duty-cycled sleeping under Routeless Routing (§4.2 energy claim)",
		config:   cfg,
		xcol:     "sleep_frac",
		xname:    "sleep",
		xs:       anys(cfg.SleepFractions),
		variants: []variant{{"rr", scenario.ProtoRouteless}},
		seeds:    cfg.Seeds,
		cols:     []col{deliveryCol, delayCol, energyCol, macCol},
		spec: func(x, _ int, seed int64) scenario.Scenario {
			sc, endpoints := routingSpec(cfg, seed, cfg.AblPairs, scenario.ProtoRouteless)
			sc.Faults = dutyCycle(cfg.SleepFractions[x], true, endpoints)
			return sc
		},
	}
}

// abl6Grid compares Routeless Routing with the paper's pure §4.1
// equation against the signal-strength tie-break inside each gradient
// band — the metric combination the conclusion proposes.
func abl6Grid(cfg Fig34Config) grid {
	cfg = cfg.withDefaults()
	return grid{
		name:     "abl6",
		title:    "ABL6 — Routeless backoff tie-break: pure §4.1 equation vs signal-strength (conclusion's metric combination)",
		config:   cfg,
		xcol:     "pairs",
		xname:    "pairs",
		xs:       anys(cfg.Pairs),
		variants: []variant{{"pure", "pure"}, {"sig", "signal"}},
		seeds:    cfg.Seeds,
		cols:     []col{macCol, hopsCol, deliveryCol},
		spec: func(x, v int, seed int64) scenario.Scenario {
			sc, _ := routingSpec(cfg, seed, cfg.Pairs[x], scenario.ProtoRouteless)
			if v == 1 {
				sc.Routeless = &scenario.Routeless{SignalTieBreak: true}
			}
			return sc
		},
	}
}
