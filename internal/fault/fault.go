// Package fault is the deterministic fault-injection plane: a list of
// Specs — a scenario document's faults entries — naming node
// crash/recovery duty cycles (crash), battery depletion (drain),
// per-link shadowing (degrade) and a roaming jammer (jam), installed
// against a built node.Network. Validate is the one check of a spec
// list; the scenario document and Install both call it.
//
// Determinism contract: every fault stream derives from the network
// seed through internal/rng stream labels. Crash processes draw from
// per-node StreamFailure streams (so a one-crash list is bitwise
// identical to the hand-wired §4.3 FailureProcess loop), and every
// other spec draws from a per-spec child of StreamFault keyed by its
// position in the list. Faults therefore perturb neither topology,
// traffic, MAC, nor fading draws, and same-seed runs stay
// byte-identical at any sweep worker count.
//
// An empty list is inert: Install registers no metrics and schedules
// no events, leaving a run's snapshot and journal bytes untouched.
//
// Interactions: a node selected by both a crash and a drain can be
// revived by the duty cycle after depletion; the drain poller re-fails
// it on its next tick, so batteries stay dead at period granularity.
package fault

import (
	"fmt"
	"math/rand"

	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/rng"
)

// Injector is the handle returned by Install: it owns the fault
// processes driving one network and the fault.* metric series they
// report into.
type Injector struct {
	nw *node.Network

	// crashes holds the duty-cycle processes, for the downtime
	// conservation bound and test introspection.
	crashes []*node.FailureProcess

	// degraded tracks currently shadowed undirected links so one link is
	// never stacked with two concurrent offsets.
	degraded map[[2]int32]bool

	drained   metrics.Counter
	degrades  metrics.Counter
	restores  metrics.Counter
	jamBursts metrics.Counter
	jamHits   metrics.Counter
}

// Install validates specs against nw's node count and, when they are
// clean, wires them into nw in list order. All fault streams derive
// from nw.Seed and live in nw.RNG. An empty list installs nothing and
// registers nothing, so a run with the fault plane merely present stays
// byte-identical to one without. Invalid specs are reported as an error
// value with nothing installed — no metrics registered, no events
// scheduled — so the network remains usable (and byte-identical to one
// that never saw them).
func Install(nw *node.Network, specs []Spec) (*Injector, error) {
	if err := Validate(specs, len(nw.Nodes)); err != nil {
		return nil, err
	}
	inj := &Injector{nw: nw, degraded: make(map[[2]int32]bool)}
	if len(specs) == 0 {
		return inj, nil
	}
	inj.registerMetrics(nw.Metrics)
	for i, s := range specs {
		switch s.Kind {
		case KindCrash:
			inj.installCrash(s, i)
		case KindDrain:
			inj.installDrain(s)
		case KindDegrade:
			inj.installDegrade(s, i)
		case KindJam:
			inj.installJam(s, i)
		}
	}
	return inj, nil
}

// Crashes exposes the installed duty-cycle processes (test and
// instrumentation access).
func (inj *Injector) Crashes() []*node.FailureProcess { return inj.crashes }

func (inj *Injector) registerMetrics(reg *metrics.Registry) {
	reg.Observe("fault.drained", &inj.drained)
	reg.Observe("fault.degrades", &inj.degrades)
	reg.Observe("fault.restores", &inj.restores)
	reg.Observe("fault.jam_bursts", &inj.jamBursts)
	reg.Observe("fault.jam_hits", &inj.jamHits)
	reg.GaugeFunc("fault.down_nodes", func() float64 {
		down := 0
		for _, n := range inj.nw.Nodes {
			if !n.Up() {
				down++
			}
		}
		return float64(down)
	})
	reg.Invariant("fault-downtime", inj.checkDowntime)
}

// checkDowntime is the conservation bound behind CheckInvariants: each
// crash process's down phases are disjoint in time, so its accrued
// downtime can never exceed the elapsed sim time, and the total is
// bounded by sim time × number of crash processes. (The bound used to
// multiply by the node count, which both overshot single-spec lists
// with exclusions and undershot multi-crash lists — the scenario fuzzer
// caught the latter.) A small relative tolerance absorbs float
// summation error across thousands of accrual terms.
func (inj *Injector) checkDowntime() error {
	var total float64
	for _, fp := range inj.crashes {
		total += fp.DownTime()
	}
	limit := float64(inj.nw.Kernel.Now()) * float64(len(inj.crashes))
	if total > limit*(1+1e-9)+1e-9 {
		return fmt.Errorf("crash downtime %.6f s exceeds sim time × %d crash processes = %.6f s",
			total, len(inj.crashes), limit)
	}
	return nil
}

// stream derives the per-spec random stream: child idx of the fault
// label under the network seed. Spec installers must draw exclusively
// from here (the faultrand lint rule forbids raw *rand.Rand plumbing
// in this package).
func (inj *Injector) stream(idx int) *rand.Rand {
	return inj.nw.RNG.New(inj.nw.Seed, rng.StreamFault, uint64(idx))
}

// selectNodes resolves a spec's node selection in ascending id order —
// installation order is part of the determinism contract: every node
// but the excluded ones.
func selectNodes(nw *node.Network, exclude []int) []*node.Node {
	skip := make(map[packet.NodeID]bool, len(exclude))
	for _, id := range exclude {
		skip[packet.NodeID(id)] = true
	}
	out := make([]*node.Node, 0, len(nw.Nodes))
	for _, n := range nw.Nodes {
		if !skip[n.ID] {
			out = append(out, n)
		}
	}
	return out
}
