// Command leaderlab studies the §2 local leader election in isolation,
// on the abstract lossy broadcast medium: outcome probabilities, round
// counts and message costs as functions of neighborhood size, metric,
// link loss and collision window.
//
// Usage:
//
//	leaderlab [-sizes 2,5,10,20,50] [-trials 500] [-lambda-ms 10]
//	          [-loss 0.0] [-metric uniform|gradient] [-seed 7]
//
// The gradient metric assigns node i a distance of i+1 hops with 1
// expected — disjoint priority bands, modeling an ideal prioritized
// election; uniform models the classic random backoff.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"routeless/internal/core"
	"routeless/internal/packet"
	"routeless/internal/rng"
	"routeless/internal/sim"
	"routeless/internal/stats"
)

func main() {
	var (
		sizesArg = flag.String("sizes", "2,5,10,20,50", "comma-separated contender counts")
		trials   = flag.Int("trials", 500, "independent elections per size")
		lambdaMS = flag.Float64("lambda-ms", 10, "backoff scale λ in milliseconds")
		loss     = flag.Float64("loss", 0, "independent per-link loss probability")
		metric   = flag.String("metric", "uniform", "uniform or gradient")
		seed     = flag.Int64("seed", 7, "master seed")
	)
	flag.Parse()

	var sizes []int
	for _, f := range strings.Split(*sizesArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad size %q\n", f)
			os.Exit(2)
		}
		sizes = append(sizes, n)
	}
	lambda := sim.Time(*lambdaMS / 1e3)

	table := stats.NewTable(
		fmt.Sprintf("local leader election — metric=%s λ=%.1fms loss=%.0f%% trials=%d",
			*metric, *lambdaMS, *loss*100, *trials),
		"nodes", "p_single_r1", "p_collision_r1", "mean_rounds", "mean_msgs", "mean_latency_ms",
	)
	for si, n := range sizes {
		var single, none, rounds, msgs, latency float64
		resolved := 0
		for trial := 0; trial < *trials; trial++ {
			k := sim.NewKernel(rng.Derive(*seed, uint64(si), uint64(trial)))
			cl := core.NewCluster(k, n+1, lambda/4, lambda/20, *loss,
				rng.New(*seed, rng.StreamElection, uint64(si), uint64(trial)))
			cl.ConnectAll()
			electors := make([]*core.Elector, n)
			for i := 0; i < n; i++ {
				var policy core.BackoffPolicy
				switch *metric {
				case "uniform":
					policy = core.Uniform{Max: lambda}
				case "gradient":
					policy = core.HopGradient{Lambda: lambda}
				default:
					fmt.Fprintf(os.Stderr, "unknown metric %q\n", *metric)
					os.Exit(2)
				}
				electors[i] = core.NewElector(k, packet.NodeID(i), cl, policy)
				cl.AttachElector(electors[i])
			}
			arb := core.NewArbiter(k, packet.NodeID(n), cl, lambda*4)
			arb.MaxRetries = 50
			cl.AttachArbiter(arb)
			var electedAt sim.Time = -1
			arb.OnElected = func(packet.NodeID, uint32) { electedAt = k.Now() }
			if *metric == "gradient" {
				// Feed disjoint bands via contexts on the first round;
				// later rounds reuse them.
				ctxs := map[packet.NodeID]core.Context{}
				for i := 0; i < n; i++ {
					ctxs[packet.NodeID(i)] = core.Context{HopsToTarget: i + 1, ExpectedHops: 1}
				}
				cl.TriggerAll(1, ctxs)
			}
			arb.Trigger()
			k.Run()
			winners := 0
			for _, e := range electors {
				if o := e.Current(); o.Won && o.Round == 1 {
					winners++
				}
			}
			if winners == 1 {
				single++
			} else if winners == 0 {
				none++
			}
			if arb.Leader() != packet.None {
				resolved++
				rounds += float64(arb.Count(core.Triggers))
				latency += float64(electedAt) * 1e3
			}
			msgs += float64(cl.Count(core.Broadcasts))
		}
		t := float64(*trials)
		meanRounds, meanLat := 0.0, 0.0
		if resolved > 0 {
			meanRounds = rounds / float64(resolved)
			meanLat = latency / float64(resolved)
		}
		table.AddRow(n, single/t, none/t, meanRounds, msgs/t, meanLat)
	}
	fmt.Println(table)
}
