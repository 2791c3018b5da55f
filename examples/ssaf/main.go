// SSAF demo: the paper's §3 comparison on one field. A 100-node sensor
// field floods CBR traffic over 20 random connections with counter-1
// flooding and with Signal Strength Aware Flooding, and prints the
// three metrics of Figure 1 side by side plus the transmission counts.
//
//	go run ./examples/ssaf
package main

import (
	"fmt"

	"routeless"
	"routeless/internal/rng"
)

func run(proto string) routeless.RunMetrics {
	sc := routeless.Scenario{
		Seed: 7, N: 100, Width: 1000, Height: 1000, Range: 250,
		Placement: "uniform", Connected: true,
		// SSAF maps the RSSI span from the decode threshold at 250 m up
		// to the power at 25 m onto its 10 ms backoff band.
		Protocol: proto, Lambda: 10e-3,
		Interval: 1, DataSize: 64,
		Duration: 20, // then a 5 s drain
	}
	for _, p := range routeless.RandomPairs(rng.New(7, rng.StreamTraffic), 100, 20) {
		sc.Flows = append(sc.Flows, routeless.Flow{Src: int(p.Src), Dst: int(p.Dst)})
	}
	m, err := routeless.Must(routeless.Build(sc)).Finish()
	if err != nil {
		panic(err)
	}
	return m
}

func main() {
	c1, ss := run("counter1"), run("ssaf")

	t := routeless.NewTable("counter-1 flooding vs SSAF (100 nodes, 20 CBR connections, 20 s)",
		"metric", "counter-1", "ssaf")
	t.AddRow("delivery ratio", c1.Delivery, ss.Delivery)
	t.AddRow("end-to-end delay (ms)", c1.Delay*1e3, ss.Delay*1e3)
	t.AddRow("average hops", c1.Hops, ss.Hops)
	t.AddRow("MAC transmissions", uint64(c1.MACPackets), uint64(ss.MACPackets))
	fmt.Println(t)

	fmt.Println("SSAF gives distant receivers the shortest rebroadcast backoff, so the")
	fmt.Println("flood front advances in larger strides: lower delay for the same")
	fmt.Println("per-node transmit-once cost (§3). Its 1-3 % hop saving needs ten seeds")
	fmt.Println("to resolve (EXPERIMENTS.md, Figure 1); one field cannot show it.")
}
