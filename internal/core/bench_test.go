package core

import (
	"testing"

	"routeless/internal/sim"
)

// BenchmarkClusterRound times one election round in a 50-node clique on
// the abstract medium: every elector draws a backoff, the winners
// announce, and each announcement reaches the other 49 through the
// cluster's per-receiver delivery queues.
func BenchmarkClusterRound(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	c, _ := buildClique(k, 50, Uniform{Max: 0.01}, 1e-4, 1e-6, 0, 1)
	for i := 0; i < b.N; i++ {
		c.TriggerAll(uint32(i+1), nil)
		k.Run()
	}
	b.ReportMetric(float64(c.Count(Broadcasts))/float64(b.N), "broadcasts/op")
}
