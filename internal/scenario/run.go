package scenario

import (
	"errors"
	"fmt"

	"routeless/internal/fault"
	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/rng"
	"routeless/internal/sim"
	"routeless/internal/traffic"
)

// DrainTime is how long every run continues past its traffic window so
// in-flight packets settle before the conservation laws are checked.
const DrainTime sim.Time = 5

// ErrBuild marks run construction failures: a valid description the
// simulator still cannot realize (typically an impossible connected
// placement). It wraps the underlying node.New/fault.Install error.
var ErrBuild = errors.New("scenario: build failed")

// Spec is the Go-level description of one run — what BuildWith derives
// from a document, and what each figure, ablation, churn and mega cell
// of internal/experiments writes directly for the settings the document
// format does not carry. Assemble is the only code that turns one into
// a wired network.
type Spec struct {
	// Net is the network to build. A non-nil Net.Runtime is reset
	// before the build.
	Net node.Config
	// Install attaches the network layer with one nw.Install call.
	Install func(nw *node.Network)
	// Flows returns the run's CBR sources in start order. It is called
	// once the protocol is installed, so endpoints may be chosen from
	// the built node positions.
	Flows func(nw *node.Network) []CBRFlow
	// Mobility, when non-nil, starts random-waypoint motion.
	Mobility *Mobility
	// Plan is the fault plan; empty installs nothing.
	Plan fault.Plan
	// Duration is the traffic window; the run ends DrainTime later.
	Duration sim.Time
}

// CBRFlow is one constant-bit-rate source of a Spec.
type CBRFlow struct {
	Src, Dst packet.NodeID
	Interval sim.Time
	Size     int
	// StartAt, when positive, fixes the first packet's time; zero
	// de-phases the flow by a uniform fraction of one interval drawn
	// from the source node's stream.
	StartAt sim.Time
}

// Run is a built, resumable simulation: the network plus everything
// its Spec attached to it (traffic, mobility, faults), advanced in
// exact chunks by AdvanceTo, drained and judged by Finish. The zero
// value is not usable; construct with Build or Assemble.
type Run struct {
	sc     Scenario // the source document; zero for a bare Spec
	dur    sim.Time
	nw     *node.Network
	tap    *appTap
	cbrs   []*traffic.CBR
	movers []*node.Waypoint
	inj    *fault.Injector

	journal *metrics.Journal
	epochs  int // journal epochs emitted so far
	stopped bool
	done    bool
	rm      RunMetrics
	ferr    error
}

// Assemble constructs the run at t=0.
//
// The construction order is frozen — runtime reset, network, protocol,
// app tap, flows (in list order), movers, fault plan — because stream
// creation order, metric registration order, and kernel sequence
// numbers all derive from it. Every run in the repo is wired here, so
// a document that spells out a figure cell's parameters reproduces
// that cell bit for bit.
//
// Assemble owns the runtime reset: pool watermarks start from zero
// exactly as with a fresh runtime (snapshots hash them), and the free
// lists shrink to what the previous run on this worker needed.
func Assemble(sp Spec) (*Run, error) {
	if rt := sp.Net.Runtime; rt != nil {
		rt.Reset()
	}
	nw, err := node.New(sp.Net)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBuild, err)
	}
	r := &Run{nw: nw, dur: sp.Duration}
	sp.Install(nw)

	r.tap = newAppTap(nw)
	flows := sp.Flows(nw)
	r.cbrs = make([]*traffic.CBR, len(flows))
	for i, f := range flows {
		c := traffic.NewCBR(nw.Nodes[f.Src], f.Dst, f.Interval, f.Size)
		if f.StartAt > 0 {
			c.StartAt(f.StartAt)
		} else {
			c.Start()
		}
		r.cbrs[i] = c
	}

	if m := sp.Mobility; m != nil {
		for i := 0; i < m.Movers; i++ {
			w := node.NewWaypoint(nw, nw.Nodes[i], nw.RNG.New(nw.Seed, rng.StreamFuzz, SubMobility, uint64(i)))
			w.MinSpeed, w.MaxSpeed = m.MinSpeed, m.MaxSpeed
			w.Start()
			r.movers = append(r.movers, w)
		}
	}

	if r.inj, err = fault.Install(nw, sp.Plan); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBuild, err)
	}
	return r, nil
}

// Scenario returns the document the run was built from (the zero value
// for a run assembled from a bare Spec, which therefore cannot be
// snapshotted).
func (r *Run) Scenario() Scenario { return r.sc }

// Network returns the underlying network.
func (r *Run) Network() *node.Network { return r.nw }

// Traffic returns the run's CBR sources in flow order.
func (r *Run) Traffic() []*traffic.CBR { return r.cbrs }

// Movers returns the run's waypoint processes in node order.
func (r *Run) Movers() []*node.Waypoint { return r.movers }

// Faults returns the installed fault injector.
func (r *Run) Faults() *fault.Injector { return r.inj }

// Now returns the run's current simulation time.
func (r *Run) Now() sim.Time { return r.nw.Kernel.Now() }

// End returns the run's final time: traffic duration plus the drain
// window the conservation-law oracle expects.
func (r *Run) End() sim.Time { return r.dur + DrainTime }

// Finished reports whether Finish has folded the run. A finished run
// must not be advanced or snapshotted — folding the app tap is a
// one-way door.
func (r *Run) Finished() bool { return r.done }

// SetJournal attaches a journal. At t=0 it writes the run's start
// record (carrying the full document); attached later — a restored
// run — it emits only the records past the restore point, so the
// original prefix plus the resumed suffix equals the uninterrupted
// run's bytes exactly.
func (r *Run) SetJournal(j *metrics.Journal) {
	r.journal = j
	if j != nil && !(r.Now() > 0) {
		j.Write(metrics.Record{
			Experiment: "scenario",
			Label:      "start",
			Seed:       r.nw.Seed,
			Config:     &r.sc,
		})
	}
}

// emit writes one metrics record with the given label.
func (r *Run) emit(label string) {
	if r.journal == nil {
		return
	}
	r.journal.Write(metrics.Record{
		Experiment: "scenario",
		Label:      label,
		Seed:       r.nw.Seed,
		Metrics:    r.nw.Metrics.Snapshot(),
	})
}

// stopTraffic freezes sources and movers at the traffic deadline, so
// the drain window only settles what is already in flight.
func (r *Run) stopTraffic() {
	for _, c := range r.cbrs {
		c.Stop()
	}
	for _, w := range r.movers {
		w.Stop()
	}
	r.stopped = true
}

// AdvanceTo runs the simulation to exactly t. It is resumable and
// chunk-exact: advancing 0→2T in one call, in two calls, or in a
// restored twin of the run executes the identical event sequence,
// because the kernel's RunUntil is already exact under arbitrary
// intermediate barriers. Internal boundaries — the traffic stop at
// Duration and each JournalEvery epoch — are always honored at their
// exact times regardless of the caller's chunking.
func (r *Run) AdvanceTo(t sim.Time) error {
	if r.done {
		return fmt.Errorf("scenario: run already finished")
	}
	if t < r.Now() {
		return fmt.Errorf("scenario: cannot rewind to t=%v (now %v)", t, r.Now())
	}
	if t > r.End() {
		return fmt.Errorf("scenario: t=%v beyond run end %v", t, r.End())
	}
	for r.Now() < t {
		next := t
		atEpoch := false
		if r.sc.JournalEvery > 0 {
			if ev := sim.Time(float64(r.epochs+1) * r.sc.JournalEvery); ev <= next {
				next = ev
				atEpoch = true
			}
		}
		stopHere := false
		if !r.stopped && r.dur <= next {
			if r.dur < next {
				next = r.dur
				atEpoch = false
			}
			stopHere = true
		}
		r.nw.Run(next)
		if stopHere {
			r.stopTraffic()
		}
		if atEpoch {
			r.emit(fmt.Sprintf("epoch t=%g", float64(next)))
			r.epochs++
		}
	}
	return nil
}

// Finish advances to End, folds the app tap, checks the conservation
// laws, writes the final journal record, and returns the run's
// paper-unit metrics. The returned error is the oracle verdict
// (invariant violations), not a transport failure; the metrics are
// valid either way. Finish is idempotent.
func (r *Run) Finish() (RunMetrics, error) {
	if r.done {
		return r.rm, r.ferr
	}
	if err := r.AdvanceTo(r.End()); err != nil {
		return RunMetrics{}, err
	}
	r.tap.fold(r.cbrs)
	r.ferr, r.done = r.nw.CheckInvariants(), true
	m := &r.tap.m
	r.rm = RunMetrics{
		Delay:      m.Delay.Mean(),
		Hops:       m.Hops.Mean(),
		Delivery:   m.DeliveryRatio(),
		MACPackets: float64(r.nw.MACPackets()),
		EnergyJ:    r.nw.TotalEnergy(),
	}
	r.emit("final")
	return r.rm, r.ferr
}
