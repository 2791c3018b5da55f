// Command netviz renders the Figure 2 scenario — Routeless Routing
// steering an A→B flow around heavy C↔D cross-traffic — as ASCII maps:
// '.' nodes, 'o' nodes that relayed A's data, 'x' nodes that relayed
// the cross-traffic, letters for the endpoints.
//
// Usage:
//
//	netviz [-nodes N] [-terrain M] [-seed S] [-duration S] [-width W]
//	       [-cross-interval S]
package main

import (
	"flag"
	"fmt"
	"os"

	"routeless/internal/experiments"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 300, "node count")
		terrain  = flag.Float64("terrain", 1500, "square terrain side, meters")
		seed     = flag.Int64("seed", 3, "simulation seed")
		duration = flag.Float64("duration", 30, "traffic seconds")
		width    = flag.Int("width", 76, "map width in characters")
		crossIv  = flag.Float64("cross-interval", 0, "C<->D packet interval (0 = default)")
		svgOut   = flag.String("svg", "", "also write the congested scenario as SVG to this file")
	)
	flag.Parse()

	res := experiments.RunFig2(experiments.Fig2Config{
		Nodes: *nodes, Terrain: *terrain, Seed: *seed,
		Duration: *duration, CrossInterval: *crossIv,
	}, 0)
	fmt.Println(experiments.Fig2Table(res))
	fmt.Println(experiments.Fig2Render(res, *width))
	if *svgOut != "" {
		if err := os.WriteFile(*svgOut, []byte(experiments.Fig2SVG(res, 800)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "svg:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *svgOut)
	}
}
