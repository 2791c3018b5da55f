// Command netviz renders the Figure 2 scenario — Routeless Routing
// steering an A→B flow around heavy C↔D cross-traffic — as ASCII maps:
// '.' nodes, 'o' nodes that relayed A's data, 'x' nodes that relayed
// the cross-traffic, letters for the endpoints. The arena is the
// paper's: 300 nodes on a 1500 m square, seed 3.
//
// Usage:
//
//	netviz [-duration S] [-svg FILE]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"routeless/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args, prints the tables and maps to out and returns the
// exit status: 2 for arguments that name no run, before it starts.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("netviz", flag.ContinueOnError)
	var (
		duration = fs.Float64("duration", 30, "traffic seconds")
		svgOut   = fs.String("svg", "", "also write the congested scenario as SVG to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if !(*duration >= 0) || math.IsInf(*duration, 1) {
		fmt.Fprintf(os.Stderr, "netviz: -duration must be a finite number of seconds, at least 0, got %v\n", *duration)
		return 2
	}

	res := experiments.RunFig2(experiments.Fig2Config{
		Nodes: 300, Terrain: 1500, Seed: 3, Duration: *duration,
	}, 0)
	fmt.Fprintln(out, experiments.Fig2Table(res))
	fmt.Fprintln(out, experiments.Fig2Render(res, 76))
	if *svgOut != "" {
		if err := os.WriteFile(*svgOut, []byte(experiments.Fig2SVG(res, 800)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "svg:", err)
			return 1
		}
		fmt.Fprintln(out, "wrote", *svgOut)
	}
	return 0
}
