// Congestion demo: a miniature of the paper's Figure 2. An A→B flow
// crosses the middle of the field; heavy C↔D traffic then floods that
// middle, and Routeless Routing's elections — in which congested nodes
// lose because their frames sit in full MAC queues — steer the A→B
// packets around the hot region with no explicit congestion signaling.
//
//	go run ./examples/congestion
package main

import (
	"fmt"

	"routeless/internal/experiments"
)

func main() {
	res := experiments.RunFig2(experiments.Fig2Config{
		Nodes: 300, Terrain: 1500, Seed: 3, Duration: 30,
	}, 0)
	fmt.Println(experiments.Fig2Table(res))
	fmt.Println(experiments.Fig2Render(res, 72))
}
