package experiments

import (
	"routeless/internal/core"
	"routeless/internal/flood"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/rng"
	"routeless/internal/routing"
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
		spec: func(x, v int, seed int64) scenario.Spec {
			fcfg := scenario.SSAFConfig(cfg.Lambda, cfg.Range)
			fcfg.Cancel = v == 1
			install := func(nw *node.Network) {
				nw.Install(func(*node.Node) node.Protocol { return flood.New(&fcfg) })
			}
			return fig1Spec(cfg, install, cfg.Intervals[x], packet.SizeData, seed)
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
		spec: func(x, _ int, seed int64) scenario.Spec {
			run := cfg
			run.Lambda = cfg.Lambdas[x]
			return routingCell(run, scenario.ProtoRouteless, cfg.AblPairs, 0, seed)
		},
	}
}

// --- ABL3: election outcome probabilities ------------------------------

// Abl3Config measures leader-election outcomes on the abstract medium
// as neighborhood size grows: Trials independent cliques per size.
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

// abl3Out is one trial's election outcome — 1 for a clean single
// leader in round 1, 1 for a collision that left no leader, the
// arbiter rounds until success and the broadcasts (announcements, acks
// and syncs) spent — and, folded by runAbl3, their mean over a clique
// size's trials.
type abl3Out struct {
	single, none, rounds, bcasts float64
}

// runAbl3 runs one sweep cell per (size, trial) and returns the mean
// outcome per size.
func runAbl3(cfg Abl3Config, workers int) []abl3Out {
	cfg = cfg.withDefaults()
	// Each trial derives its own streams from (seed, size index, trial),
	// so the cell seed is just the trial index; determinism rides on the
	// derivation, exactly as the serial loop did.
	trialSeeds := make([]int64, cfg.Trials)
	for i := range trialSeeds {
		trialSeeds[i] = int64(i)
	}
	cells := sweep.Cells("abl3", len(cfg.Sizes), trialSeeds)
	results := sweep.Run(workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) abl3Out {
		return runElectionOnce(ctx, cfg.Sizes[c.Point], c.Point, c.Rep, cfg.Seed)
	})
	means := make([]abl3Out, len(cfg.Sizes))
	for i, c := range cells {
		m, r := &means[c.Point], &results[i]
		m.single += r.single
		m.none += r.none
		m.rounds += r.rounds
		m.bcasts += r.bcasts
	}
	trials := float64(cfg.Trials)
	for i := range means {
		m := &means[i]
		m.single /= trials
		m.none /= trials
		m.rounds /= trials
		m.bcasts /= trials
	}
	return means
}

// runElectionOnce runs one clique trial on the abstract medium.
func runElectionOnce(ctx *sweep.Context, n, si, trial int, seed int64) abl3Out {
	k := sim.NewKernelPooled(rng.Derive(seed, uint64(si), uint64(trial)), ctx.Runtime().Events)
	// Message latency comparable to λ/4 makes near-ties collide,
	// like real airtime does.
	cl := core.NewCluster(k, n+1, abl3Lambda/4, abl3Lambda/20, 0,
		rng.New(seed, rng.StreamElection, uint64(si), uint64(trial)))
	cl.ConnectAll()
	electors := make([]*core.Elector, n)
	for i := 0; i < n; i++ {
		electors[i] = core.NewElector(k, packet.NodeID(i), cl, core.Uniform{Max: abl3Lambda})
		cl.AttachElector(electors[i])
	}
	arb := core.NewArbiter(k, packet.NodeID(n), cl, abl3Lambda*4)
	arb.MaxRetries = 20
	cl.AttachArbiter(arb)
	arb.Trigger()
	k.Run()
	var out abl3Out
	winners := 0
	for _, e := range electors {
		if o := e.Current(); o.Won && o.Round == 1 {
			winners++
		}
	}
	switch {
	case winners == 1:
		out.single = 1
	case winners == 0 || arb.Leader() == packet.None:
		out.none = 1
	}
	if arb.Leader() != packet.None {
		out.rounds = float64(arb.Count(core.Triggers))
	}
	out.bcasts = float64(cl.Count(core.Broadcasts))
	return out
}

// abl3Table renders the election study, one row per clique size.
func abl3Table(sizes []int, means []abl3Out) *stats.Table {
	t := stats.NewTable(
		"ABL3 — local leader election outcomes vs neighborhood size (uniform metric, arbiter on)",
		"nodes", "p_single_leader_r1", "p_collision_r1", "mean_rounds", "mean_broadcasts",
	)
	for i, m := range means {
		t.AddRow(sizes[i], m.single, m.none, m.rounds, m.bcasts)
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
		spec: func(x, v int, seed int64) scenario.Spec {
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
	install := scenario.Installer(scenario.ProtoRouteless, cfg.Lambda, cfg.Range)
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
		spec: func(x, _ int, seed int64) scenario.Spec {
			sp, endpoints := routingSpec(cfg, seed, cfg.AblPairs, install)
			sp.Plan = dutyCycle(cfg.SleepFractions[x], true, endpoints)
			return sp
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
		spec: func(x, v int, seed int64) scenario.Spec {
			rcfg := routing.RoutelessConfig{Lambda: cfg.Lambda, SignalTieBreak: v == 1}
			install := func(nw *node.Network) {
				nw.Install(func(*node.Node) node.Protocol { return routing.NewRouteless(rcfg) })
			}
			sp, _ := routingSpec(cfg, seed, cfg.Pairs[x], install)
			return sp
		},
	}
}
