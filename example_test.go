package routeless_test

import (
	"fmt"

	"routeless"
)

// ExampleNewNetwork shows the minimal end-to-end flow: build a field,
// install Routeless Routing, send one packet.
func ExampleNewNetwork() {
	nw := routeless.Must(routeless.NewNetwork(routeless.NetworkConfig{
		N: 100, Seed: 42, EnsureConnected: true,
	}))
	nw.Install(func(n *routeless.Node) routeless.Protocol {
		return routeless.NewRouteless(routeless.RoutelessConfig{})
	})
	delivered := false
	nw.Nodes[7].OnAppReceive = func(p *routeless.Packet) { delivered = true }
	nw.Nodes[0].Net.Send(7, 256)
	nw.Run(10)
	fmt.Println("delivered:", delivered)
	// Output: delivered: true
}

// ExampleNewElector runs one §2 local leader election on the abstract
// medium: five contenders, one arbiter, uniform backoff metric.
func ExampleNewElector() {
	k := routeless.NewKernel(1)
	cluster := routeless.NewCluster(k, 6, 1e-4, 1e-6, 0, k.Rand())
	cluster.ConnectAll()
	for i := 0; i < 5; i++ {
		e := routeless.NewElector(k, routeless.NodeID(i), cluster,
			routeless.UniformPolicy{Max: 0.01})
		cluster.AttachElector(e)
	}
	arbiter := routeless.NewArbiter(k, 5, cluster, 0.1)
	cluster.AttachArbiter(arbiter)
	arbiter.Trigger()
	k.Run()
	fmt.Println("elected:", arbiter.Leader() != -2 /* packet.None */)
	// Output: elected: true
}

// ExampleHopGradientPolicy demonstrates the §4.1 backoff equation: a
// node inside the expected distance draws below λ, a node two hops
// beyond it draws in the [2λ, 3λ) band.
func ExampleHopGradientPolicy() {
	policy := routeless.HopGradientPolicy{Lambda: 0.010}
	k := routeless.NewKernel(5)
	near, _ := policy.Backoff(routeless.PolicyContext{
		HopsToTarget: 2, ExpectedHops: 3, Rand: k.Rand(),
	})
	far, _ := policy.Backoff(routeless.PolicyContext{
		HopsToTarget: 5, ExpectedHops: 3, Rand: k.Rand(),
	})
	fmt.Println("near below lambda:", near < 0.010)
	fmt.Println("far above 2*lambda:", far >= 0.020)
	// Output:
	// near below lambda: true
	// far above 2*lambda: true
}
