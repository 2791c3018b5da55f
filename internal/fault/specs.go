package fault

import (
	"fmt"
	"math"

	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/rng"
	"routeless/internal/sim"
)

// finiteNonNeg rejects NaN, ±Inf, and negative values for fields where
// zero means "use the default". Every time-like spec field (periods,
// durations, stop times) validates through here: a negative or NaN
// period would otherwise reach sim.NewTicker unchecked and either
// panic mid-install or corrupt the event heap ordering.
func finiteNonNeg(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("%s must be a finite non-negative number, got %v", name, v)
	}
	return nil
}

// finite rejects NaN and ±Inf for fields where any finite sign is
// meaningful (dB offsets, dBm powers).
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s must be finite, got %v", name, v)
	}
	return nil
}

// CrashSpec drives the paper's §4.3 duty-cycle transceiver failures on
// a set of nodes, generalizing node.FailureProcess: each selected node
// alternates exponentially distributed up and down periods whose means
// give the long-run off fraction.
//
// Streams: each node's process draws from the stream labelled
// (seed, rng.StreamFailure, spec index, id), so two crash specs that
// cover the same node drive independent duty cycles.
type CrashSpec struct {
	// OffFraction p ∈ [0, 1) is the long-run fraction of time down.
	OffFraction float64
	// Cycle is the mean up+down period in seconds; default 10.
	Cycle float64
	// Sleep uses the low-power sleep state instead of a hard
	// transceiver-off — the §4.2 voluntary duty-cycling variant.
	Sleep bool
	// Nodes, when non-nil, limits the fault to these ids.
	Nodes []packet.NodeID
	// Exclude removes ids from the selection (e.g. traffic endpoints,
	// matching §4.3's "all nodes but those that generate and receive
	// CBR traffic").
	Exclude []packet.NodeID
}

// Crash returns a crash/recovery duty-cycle fault with the given
// long-run off fraction on every node.
func Crash(offFraction float64) CrashSpec { return CrashSpec{OffFraction: offFraction} }

// validate rejects off fractions outside [0, 1) — FailureProcess.Start
// panics on p ≥ 1, and the validated path turns that process death into
// a value — and non-finite or negative cycles.
func (s CrashSpec) validate() error {
	if math.IsNaN(s.OffFraction) || s.OffFraction < 0 || s.OffFraction >= 1 {
		return fmt.Errorf("OffFraction must be in [0, 1), got %v", s.OffFraction)
	}
	return finiteNonNeg("Cycle", s.Cycle)
}

func (s CrashSpec) install(inj *Injector, idx int) {
	for _, n := range selectNodes(inj.nw, s.Nodes, s.Exclude) {
		fp := node.NewFailureProcess(n,
			inj.nw.RNG.New(inj.nw.Seed, rng.StreamFailure, uint64(idx), uint64(n.ID)))
		fp.OffFraction = s.OffFraction
		if s.Cycle != 0 {
			fp.Cycle = s.Cycle
		}
		fp.Sleep = s.Sleep
		fp.RegisterMetrics(inj.nw.Metrics)
		inj.crashes = append(inj.crashes, fp)
		fp.Start()
	}
}

// DrainSpec models battery depletion: each selected node carries a
// finite energy budget in joules, and a poller driven by the phy energy
// meter permanently fails the node once cumulative consumption crosses
// it. The poll is deterministic — fixed period, no randomness — and the
// meter's lazy accrual is idempotent, so polling never changes any
// measured value. A depleted node that something else (a Crash duty
// cycle) revives is re-failed on the next tick: batteries stay dead.
type DrainSpec struct {
	// CapacityJ is the per-node energy budget in joules.
	CapacityJ float64
	// Period is the poll period in seconds; default 1.
	Period sim.Time
	// Nodes, when non-nil, limits the fault to these ids.
	Nodes []packet.NodeID
	// Exclude removes ids from the selection.
	Exclude []packet.NodeID
}

// Drain returns a battery-depletion fault with the given per-node
// energy budget.
func Drain(capacityJ float64) DrainSpec { return DrainSpec{CapacityJ: capacityJ} }

// validate rejects non-positive or non-finite capacities and negative
// or NaN poll periods as values, before install's panic backstop.
func (s DrainSpec) validate() error {
	if math.IsNaN(s.CapacityJ) || math.IsInf(s.CapacityJ, 0) || s.CapacityJ <= 0 {
		return fmt.Errorf("CapacityJ must be positive and finite, got %v", s.CapacityJ)
	}
	return finiteNonNeg("Period", float64(s.Period))
}

func (s DrainSpec) install(inj *Injector, idx int) {
	if s.CapacityJ <= 0 {
		panic("fault: Drain capacity must be positive")
	}
	period := s.Period
	if !(period > 0) { // catches negative, zero, and NaN: validate's backstop
		period = 1
	}
	nodes := selectNodes(inj.nw, s.Nodes, s.Exclude)
	dead := make([]bool, len(nodes))
	k := inj.nw.Kernel
	t := sim.NewTicker(k, period, func() {
		now := k.Now()
		for i, n := range nodes {
			if dead[i] {
				if n.Up() {
					n.Fail() // revived by a crash duty cycle: batteries stay dead
				}
				continue
			}
			if n.Radio.Energy().Total(now) >= s.CapacityJ {
				dead[i] = true
				inj.drained.Inc()
				if n.Up() {
					n.Fail()
				}
			}
		}
	})
	t.Start()
}

// DegradeSpec injects transient per-link shadowing: every Period a
// random in-range link is attenuated by OffsetDB in both directions for
// Duration, then restored — a deep fade severing one edge of the
// topology at a time. Link picks draw from the spec's derived
// StreamFault child, never from the frame fading stream, so installing
// a degrade spec does not perturb per-frame fading draws.
type DegradeSpec struct {
	// OffsetDB is the gain applied to degraded links; negative values
	// attenuate. Default −25 dB, deep enough to push an in-range link
	// below the decode threshold under the default radio calibration.
	OffsetDB float64
	// Period is the spacing between degrade events; default 1 s.
	Period sim.Time
	// Duration is how long each degradation lasts; default 1 s.
	Duration sim.Time
}

// Degrade returns a per-link shadowing fault with the given offset.
func Degrade(offsetDB float64) DegradeSpec { return DegradeSpec{OffsetDB: offsetDB} }

// validate rejects NaN/Inf offsets (any finite sign is a legal gain)
// and negative or NaN periods and durations.
func (s DegradeSpec) validate() error {
	if err := finite("OffsetDB", s.OffsetDB); err != nil {
		return err
	}
	if err := finiteNonNeg("Period", float64(s.Period)); err != nil {
		return err
	}
	return finiteNonNeg("Duration", float64(s.Duration))
}

func (s DegradeSpec) install(inj *Injector, idx int) {
	off := s.OffsetDB
	if off == 0 {
		off = -25
	}
	period := s.Period
	if !(period > 0) {
		period = 1
	}
	dur := s.Duration
	if !(dur > 0) {
		dur = 1
	}
	r := inj.stream(idx)
	ch := inj.nw.Channel
	k := inj.nw.Kernel
	var buf []int
	t := sim.NewTicker(k, period, func() {
		a := r.Intn(ch.NumRadios())
		buf = ch.NeighborIDs(buf, a)
		if len(buf) == 0 {
			return
		}
		b := buf[r.Intn(len(buf))]
		key := [2]int32{int32(min(a, b)), int32(max(a, b))}
		if inj.degraded[key] {
			return // already shadowed; never stack offsets on one link
		}
		inj.degraded[key] = true
		inj.degrades.Inc()
		ch.SetLinkOffset(a, b, off)
		ch.SetLinkOffset(b, a, off)
		k.Schedule(dur, func() {
			delete(inj.degraded, key)
			inj.restores.Inc()
			ch.SetLinkOffset(a, b, 0)
			ch.SetLinkOffset(b, a, 0)
		})
	})
	t.Start()
}

// JamSpec is a roaming interference-only transmitter: it appears at a
// uniform random position, radiates Burst-long wideband bursts every
// Period through the channel's interference hook, and random-walks
// SpeedMps × Period between bursts, clamped to the terrain. Jam signals
// raise the noise floor and hold carrier sense busy but never decode,
// and their power is the deterministic propagation mean — the jammer
// draws only from its own derived stream.
type JamSpec struct {
	// TxPowerDBm is the jammer's transmit power; default 24.5 dBm (the
	// WaveLAN default — as loud as any node).
	TxPowerDBm float64
	// Period is the burst spacing; default 250 ms.
	Period sim.Time
	// Burst is each burst's airtime; default 5 ms.
	Burst sim.Time
	// SpeedMps is the roaming speed in meters per second; default 10.
	SpeedMps float64
	// Stop silences the jammer from this sim time on; 0 means never.
	Stop sim.Time
}

// Jam returns a roaming jammer with the given transmit power.
func Jam(txPowerDBm float64) JamSpec { return JamSpec{TxPowerDBm: txPowerDBm} }

// validate rejects non-finite powers and negative or NaN timing and
// speed fields.
func (s JamSpec) validate() error {
	if err := finite("TxPowerDBm", s.TxPowerDBm); err != nil {
		return err
	}
	if err := finiteNonNeg("Period", float64(s.Period)); err != nil {
		return err
	}
	if err := finiteNonNeg("Burst", float64(s.Burst)); err != nil {
		return err
	}
	if err := finiteNonNeg("SpeedMps", s.SpeedMps); err != nil {
		return err
	}
	return finiteNonNeg("Stop", float64(s.Stop))
}

func (s JamSpec) install(inj *Injector, idx int) {
	tx := s.TxPowerDBm
	if tx == 0 {
		tx = 24.5
	}
	period := s.Period
	if !(period > 0) {
		period = 250e-3
	}
	burst := s.Burst
	if !(burst > 0) {
		burst = 5e-3
	}
	speed := s.SpeedMps
	if !(speed > 0) {
		speed = 10
	}
	r := inj.stream(idx)
	rect := inj.nw.Rect
	pos := geo.UniformPoints(r, rect, 1)[0]
	ch := inj.nw.Channel
	k := inj.nw.Kernel
	step := speed * float64(period)
	var t *sim.Ticker
	t = sim.NewTicker(k, period, func() {
		if s.Stop > 0 && k.Now() >= s.Stop {
			t.Stop()
			return
		}
		inj.jamBursts.Inc()
		inj.jamHits.Add(uint64(ch.InjectInterference(pos, tx, burst)))
		angle := 2 * math.Pi * r.Float64()
		pos = rect.Clamp(geo.Point{X: pos.X + step*math.Cos(angle), Y: pos.Y + step*math.Sin(angle)})
	})
	t.Start()
}
