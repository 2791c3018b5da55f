// Command leaderlab studies the §2 local leader election in isolation,
// on the abstract lossy broadcast medium: outcome probabilities, round
// counts and message costs as functions of neighborhood size, metric,
// link loss and collision window. Each trial is the one ABL3 runs
// (experiments.ElectionTrial); leaderlab folds the results its own way.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"routeless/internal/core"
	"routeless/internal/experiments"
	"routeless/internal/packet"
	"routeless/internal/rng"
	"routeless/internal/sim"
	"routeless/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args, prints the study's table to out and returns the
// exit status: 2 for arguments that name no study, before any trial.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("leaderlab", flag.ContinueOnError)
	var (
		sizesArg = fs.String("sizes", "2,5,10,20,50", "comma-separated contender counts")
		trials   = fs.Int("trials", 500, "independent elections per size")
		lambdaMS = fs.Float64("lambda-ms", 10, "backoff scale λ in milliseconds")
		loss     = fs.Float64("loss", 0, "independent per-link loss probability")
		metric   = fs.String("metric", "uniform", "uniform or gradient")
		seed     = fs.Int64("seed", 7, "master seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "leaderlab: "+format+"\n", a...)
		return 2
	}

	var sizes []int
	for _, f := range strings.Split(*sizesArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fail("bad size %q", f)
		}
		sizes = append(sizes, n)
	}
	if *trials < 1 {
		return fail("-trials must be at least 1, got %d", *trials)
	}
	if !(*lambdaMS > 0) || math.IsInf(*lambdaMS, 1) {
		return fail("-lambda-ms must be positive and finite, got %v", *lambdaMS)
	}
	if !(*loss >= 0 && *loss <= 1) {
		return fail("-loss must lie in [0, 1], got %v", *loss)
	}
	lambda := sim.Time(*lambdaMS / 1e3)
	policy, ok := map[string]core.BackoffPolicy{
		"uniform":  core.Uniform{Max: lambda},
		"gradient": core.HopGradient{Lambda: lambda},
	}[*metric]
	if !ok {
		return fail("unknown metric %q", *metric)
	}

	table := stats.NewTable(
		fmt.Sprintf("local leader election — metric=%s λ=%.1fms loss=%.0f%% trials=%d",
			*metric, *lambdaMS, *loss*100, *trials),
		"nodes", "p_single_r1", "p_collision_r1", "mean_rounds", "mean_msgs", "mean_latency_ms",
	)
	for si, n := range sizes {
		trial := experiments.ElectionTrial{N: n, Policy: policy, Lambda: lambda, Loss: *loss, MaxRetries: 50}
		if *metric == "gradient" {
			// Disjoint bands: node i is i+1 hops out with 1 expected.
			trial.First = map[packet.NodeID]core.Context{}
			for i := 0; i < n; i++ {
				trial.First[packet.NodeID(i)] = core.Context{HopsToTarget: i + 1, ExpectedHops: 1}
			}
		}
		var single, none, rounds, msgs, latency, resolved float64
		for t := 0; t < *trials; t++ {
			res := trial.Run(rng.Derive(*seed, uint64(si), uint64(t)), nil)
			if res.Winners == 1 {
				single++
			} else if res.Winners == 0 {
				none++
			}
			if res.Elected {
				resolved++
				rounds += float64(res.Rounds)
				latency += float64(res.ElectedAt) * 1e3
			}
			msgs += float64(res.Broadcasts)
		}
		t := float64(*trials)
		resolved = max(resolved, 1) // rounds and latency are 0 when none resolved
		table.AddRow(n, single/t, none/t, rounds/resolved, msgs/t, latency/resolved)
	}
	fmt.Fprintln(out, table)
	return 0
}
