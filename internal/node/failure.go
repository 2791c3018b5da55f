package node

import (
	"math/rand"

	"routeless/internal/metrics"
	"routeless/internal/sim"
)

// FailureProcess implements the paper's node-failure model (§4.3): "a
// node failure of 10% means that randomly selected 10% of the time the
// transceiver of a node is turned off and not able to transmit or
// receive any packets."
//
// The process alternates exponentially distributed up and down periods
// whose means are chosen so the long-run off fraction equals
// OffFraction: mean-up = (1−p)·Cycle, mean-down = p·Cycle.
type FailureProcess struct {
	// OffFraction p ∈ [0, 1) is the long-run fraction of time off.
	OffFraction float64
	// Cycle is the mean up+down period in seconds; default 10.
	Cycle float64
	// Sleep uses the low-power sleep state instead of a hard
	// transceiver-off — the §4.2 voluntary duty-cycling extension.
	// Packet-level behavior is identical; the energy meter differs.
	Sleep bool

	node  *Node
	rng   *rand.Rand
	timer *sim.Timer

	// down is this process's own phase. It deliberately does NOT mirror
	// node.Up(): the node's power state is shared (a battery drain or a
	// second crash process may fail the node mid-phase), and keying the
	// phase machine off shared state accrued downtime from a downSince
	// this process never set. Found by the scenario fuzzer
	// (internal/fuzz/testdata/crash_shared_state.json).
	down bool

	// counters
	failures   metrics.Counter
	recoveries metrics.Counter
	totalDown  float64
	downSince  sim.Time
}

// NewFailureProcess builds a process for n driven by r. It does not
// start until Start is called.
func NewFailureProcess(n *Node, r *rand.Rand) *FailureProcess {
	fp := &FailureProcess{Cycle: 10, node: n, rng: r}
	fp.timer = sim.NewTimer(n.Kernel, fp.flip)
	return fp
}

// RegisterMetrics surfaces the process's counters as network-wide
// fault.* series. Per-node processes registered under one registry sum
// into single network series; downtime is a gauge func so the series is
// exact "up to now" at snapshot time even while the node is down.
func (fp *FailureProcess) RegisterMetrics(reg *metrics.Registry) {
	reg.Observe("fault.crashes", &fp.failures)
	reg.Observe("fault.recoveries", &fp.recoveries)
	reg.GaugeFunc("fault.downtime_s", fp.DownTime)
}

// Start arms the process. With OffFraction zero it does nothing.
func (fp *FailureProcess) Start() {
	if fp.OffFraction <= 0 {
		return
	}
	if fp.OffFraction >= 1 {
		panic("node: OffFraction must be below 1")
	}
	fp.timer.Reset(fp.upDuration())
}

// Stop halts the process, closing its down phase if one is open.
func (fp *FailureProcess) Stop() {
	fp.timer.Stop()
	if fp.down {
		fp.recover()
	}
}

// Failures returns how many times the node went down.
func (fp *FailureProcess) Failures() uint64 { return fp.failures.Value() }

// DownTime returns seconds accumulated in this process's down phases,
// up to now. Phases are disjoint in time, so the total never exceeds
// the elapsed sim time — the conservation bound CheckInvariants holds
// per process.
func (fp *FailureProcess) DownTime() float64 {
	d := fp.totalDown
	if fp.down {
		d += float64(fp.node.Kernel.Now() - fp.downSince)
	}
	return d
}

func (fp *FailureProcess) upDuration() sim.Time {
	mean := (1 - fp.OffFraction) * fp.Cycle
	return sim.Time(fp.rng.ExpFloat64() * mean)
}

func (fp *FailureProcess) downDuration() sim.Time {
	mean := fp.OffFraction * fp.Cycle
	return sim.Time(fp.rng.ExpFloat64() * mean)
}

func (fp *FailureProcess) flip() {
	if !fp.down {
		fp.down = true
		fp.failures.Inc()
		fp.downSince = fp.node.Kernel.Now()
		if fp.Sleep {
			fp.node.Sleep()
		} else {
			fp.node.Fail()
		}
		fp.timer.Reset(fp.downDuration())
	} else {
		fp.recover()
		fp.timer.Reset(fp.upDuration())
	}
}

func (fp *FailureProcess) recover() {
	fp.down = false
	fp.recoveries.Inc()
	fp.totalDown += float64(fp.node.Kernel.Now() - fp.downSince)
	fp.node.Recover()
}
