// Token mutex: the paper's §1 motivating use case — "in the token-based
// distributed mutual exclusion algorithm, when the current token holder
// leaves the critical section, the token must be passed to a successor,
// and this successor is indeed a local leader among all other nodes
// that are competing for the token."
//
// Each release is one local leader election. The backoff metric rewards
// waiting time (longer wait → shorter delay), so the election doubles
// as an approximate fairness scheduler — a taste of how freely the §2
// operator composes with application-chosen metrics.
//
//	go run ./examples/mutex
package main

import (
	"fmt"

	"routeless"
	"routeless/internal/rng"
)

// waitPolicy maps accumulated waiting time onto the backoff: a node
// that has waited W of MaxWait gets a delay near zero, a fresh
// requester a delay near Lambda.
type waitPolicy struct {
	Lambda  routeless.Time
	MaxWait float64
	waited  func(id routeless.NodeID) float64
}

func (p waitPolicy) Backoff(ctx routeless.PolicyContext) (routeless.Time, bool) {
	frac := 1 - p.waited(ctx.Self)/p.MaxWait
	if frac < 0 {
		frac = 0
	}
	return routeless.Time(frac)*p.Lambda +
		routeless.Time(ctx.Rand.Float64()*0.1)*p.Lambda, true
}

func main() {
	const (
		nodes    = 6
		rounds   = 12
		holdTime = 5e-3 // seconds in the critical section
	)
	kernel := routeless.NewKernel()
	// One stream draws the medium's losses and every backoff.
	stream := rng.New(7)
	cluster := routeless.NewCluster(kernel, nodes, 50e-6, 2e-6, 0.05, stream)
	cluster.ConnectAll()

	lastHeld := make([]float64, nodes) // when each node last left the CS
	held := make([]int, nodes)
	policy := waitPolicy{
		Lambda:  2e-3,
		MaxWait: float64(nodes) * holdTime * 4,
		waited: func(id routeless.NodeID) float64 {
			return float64(kernel.Now()) - lastHeld[id]
		},
	}

	electors := make([]*routeless.Elector, nodes)
	round := uint32(0)
	var grant func(holder routeless.NodeID)

	// The token holder is the arbiter of the next election: leaving the
	// critical section is the implicit synchronization point.
	release := func(holder routeless.NodeID) {
		round++
		ctx := routeless.PolicyContext{Rand: stream}
		for _, e := range electors {
			if e.ID() == holder {
				continue // the departing holder does not compete
			}
			e.ObserveSync(round, ctx)
		}
	}

	grant = func(holder routeless.NodeID) {
		held[holder]++
		fmt.Printf("t=%6.2fms  token -> node %v (held %d times, waited %.1fms)\n",
			kernel.Now().Millis(), holder, held[holder],
			(float64(kernel.Now())-lastHeld[holder])*1e3)
		kernel.Schedule(holdTime, func() {
			lastHeld[holder] = float64(kernel.Now())
			if round < rounds {
				release(holder)
			}
		})
	}

	for i := 0; i < nodes; i++ {
		e := routeless.NewElector(kernel, routeless.NodeID(i), cluster, policy)
		e.OnOutcome = func(o routeless.ElectionOutcome) {
			if o.Won {
				grant(o.Leader)
			}
		}
		electors[i] = e
		cluster.AttachElector(e)
	}

	// Node 0 starts with the token.
	lastHeld[0] = 0
	grant(0)
	kernel.Run()

	fmt.Println("\ntoken grants per node (wait-time metric ≈ round-robin fairness):")
	for i, h := range held {
		fmt.Printf("  node %d: %s (%d)\n", i, bar(h), h)
	}
}

func bar(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += "#"
	}
	return s
}
