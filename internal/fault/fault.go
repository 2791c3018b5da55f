// Package fault is the deterministic fault-injection plane: a typed
// Plan of fault processes — node crash/recovery duty cycles (Crash),
// battery depletion (Drain), per-link shadowing (Degrade), and a
// roaming jammer (Jam) — installed against a running node.Network.
//
// Determinism contract: every fault stream derives from the network
// seed through internal/rng stream labels. Crash processes reuse the
// per-node StreamFailure streams (so routing a legacy hand-wired
// FailureProcess experiment through a one-crash plan is bitwise
// identical), and every other spec draws from a per-spec child of
// StreamFault keyed by its position in the plan. A plan therefore
// perturbs neither topology, traffic, MAC, nor fading draws, and
// same-seed runs stay byte-identical at any sweep worker count.
//
// An empty plan is inert: Install registers no metrics and schedules
// no events, leaving a run's snapshot and journal bytes untouched —
// the fault plane can be wired in everywhere without disturbing
// golden figures.
//
// Interactions: a node selected by both Crash and Drain can be revived
// by the duty cycle after depletion; the drain poller re-fails it on
// its next tick, so batteries stay dead at period granularity.
package fault

import (
	"fmt"
	"math/rand"
	"slices"

	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/rng"
)

// Spec is one typed fault in a Plan: a CrashSpec, DrainSpec,
// DegradeSpec, or JamSpec. The interface is closed — install wires the
// fault into the injector's network with the event and stream ordering
// the determinism contract requires, and validate rejects nonsensical
// parameterizations before any process is started.
type Spec interface {
	install(inj *Injector, idx int)
	validate() error
}

// Plan is an ordered list of fault specs. Order matters: a spec's
// position fixes both its derived rng stream and its event-creation
// order, both part of the determinism contract.
type Plan []Spec

// Validate checks every spec's parameters as values — NaN or negative
// periods, out-of-range fractions, non-positive capacities — and
// returns the first problem found, identified by the spec's position
// and type. A plan that validates cleanly installs without panicking;
// generated plans (the scenario fuzzer's) are rejected here instead of
// killing the process mid-install.
func (p Plan) Validate() error {
	for i, s := range p {
		if err := s.validate(); err != nil {
			return fmt.Errorf("fault: plan spec %d (%T): %w", i, s, err)
		}
	}
	return nil
}

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

// Install validates plan and, when it is clean, wires it into nw. All
// fault streams derive from nw.Seed and live in nw.RNG. An empty plan
// installs nothing and registers nothing, so a run with the fault plane
// merely present stays byte-identical to one without. An invalid plan
// is reported as an error value with nothing installed — no metrics
// registered, no events scheduled — so the network remains usable (and
// byte-identical to one that never saw the plan).
func Install(nw *node.Network, plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{nw: nw, degraded: make(map[[2]int32]bool)}
	if len(plan) == 0 {
		return inj, nil
	}
	inj.registerMetrics(nw.Metrics)
	for i, s := range plan {
		s.install(inj, i)
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
// downtime can never exceed the elapsed sim time, and the plan total is
// bounded by sim time × number of crash processes. (The bound used to
// multiply by the node count, which both overshot single-spec plans
// with exclusions and undershot multi-crash plans — the scenario fuzzer
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
// installation order is part of the determinism contract. A nil ids
// slice selects every node; exclude always wins.
func selectNodes(nw *node.Network, ids, exclude []packet.NodeID) []*node.Node {
	skip := make(map[packet.NodeID]bool, len(exclude))
	for _, id := range exclude {
		skip[id] = true
	}
	if ids == nil {
		out := make([]*node.Node, 0, len(nw.Nodes))
		for _, n := range nw.Nodes {
			if !skip[n.ID] {
				out = append(out, n)
			}
		}
		return out
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	out := make([]*node.Node, 0, len(sorted))
	for _, id := range sorted {
		if !skip[id] && int(id) >= 0 && int(id) < len(nw.Nodes) {
			out = append(out, nw.Nodes[id])
		}
	}
	return out
}
