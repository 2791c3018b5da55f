package fault

import (
	"fmt"
	"math"
	"reflect"
	"slices"

	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/rng"
	"routeless/internal/sim"
)

// The fault kinds a Spec names.
const (
	// KindCrash drives the paper's §4.3 duty-cycle transceiver
	// failures: each selected node alternates exponentially distributed
	// up and down periods whose means give the long-run off fraction.
	KindCrash = "crash"
	// KindDrain models battery depletion: a node whose cumulative
	// energy use crosses its budget fails for good.
	KindDrain = "drain"
	// KindDegrade shadows one random in-range link at a time.
	KindDegrade = "degrade"
	// KindJam is a roaming interference-only transmitter.
	KindJam = "jam"
)

// Spec is one fault of a run, exactly as a scenario document's faults
// entry spells it. Each Kind reads only its own fields (see reads), and
// Validate rejects a spec that sets any other; zero values take the
// defaults noted on each field.
type Spec struct {
	Kind string `json:"kind"` // KindCrash, KindDrain, KindDegrade or KindJam

	// OffFraction p ∈ [0, 1) is a crash's long-run fraction of time down.
	OffFraction float64 `json:"off_fraction,omitempty"`
	// Cycle is a crash's mean up+down period in seconds; default 10.
	Cycle float64 `json:"cycle,omitempty"`
	// Sleep makes a crash use the low-power sleep state instead of a
	// hard transceiver-off — the §4.2 voluntary duty-cycling variant.
	Sleep bool `json:"sleep,omitempty"`
	// CapacityJ is a drain's per-node energy budget in joules.
	CapacityJ float64 `json:"capacity_j,omitempty"`
	// OffsetDB is the gain a degrade applies to a link; negative values
	// attenuate. Default −25 dB, deep enough to push an in-range link
	// below the decode threshold under the default radio calibration.
	OffsetDB float64 `json:"offset_db,omitempty"`
	// TxPowerDBm is the jammer's transmit power; default 24.5 dBm (the
	// WaveLAN default — as loud as any node).
	TxPowerDBm float64 `json:"tx_power_dbm,omitempty"`
	// SpeedMps is the jammer's roaming speed in m/s; default 10.
	SpeedMps float64 `json:"speed_mps,omitempty"`
	// Period is a drain's poll period (default 1 s), a degrade's spacing
	// between shadowed links (default 1 s) or a jammer's burst spacing
	// (default 250 ms).
	Period float64 `json:"period,omitempty"`
	// Duration is how long each degradation lasts; default 1 s.
	Duration float64 `json:"duration,omitempty"`
	// Burst is each jam burst's airtime; default 5 ms.
	Burst float64 `json:"burst,omitempty"`

	// Exclude shields the listed node ids from the node-targeting kinds
	// (crash, drain) — e.g. traffic endpoints, matching §4.3's "all
	// nodes but those that generate and receive CBR traffic".
	Exclude []int `json:"exclude,omitempty"`
}

// Validate checks specs for a network of n nodes and returns the first
// problem found, identified by the spec's position and kind: an unknown
// kind, a field set that its kind does not read (named in the error), an
// Exclude naming an id outside [0, n), and — among the fields its kind
// reads — an off fraction outside [0, 1), a capacity that is not
// positive and finite, a gain that is not finite, or a time, speed or
// period that is NaN, infinite or negative (zero takes the default).
// Specs that validate install without panicking, so a generated or
// served document is rejected here as a value instead of killing the
// process mid-install.
func Validate(specs []Spec, n int) error {
	for i, s := range specs {
		if err := s.check(n); err != nil {
			return fmt.Errorf("fault %d (%s): %w", i, s.Kind, err)
		}
	}
	return nil
}

// reads names, per kind, the fields its installer reads besides Kind.
var reads = map[string][]string{
	KindCrash:   {"OffFraction", "Cycle", "Sleep", "Exclude"},
	KindDrain:   {"CapacityJ", "Period", "Exclude"},
	KindDegrade: {"OffsetDB", "Period", "Duration"},
	KindJam:     {"TxPowerDBm", "Period", "Burst", "SpeedMps"},
}

// check is Validate for one spec.
func (s Spec) check(n int) error {
	read, ok := reads[s.Kind]
	if !ok {
		return fmt.Errorf("unknown fault kind %q", s.Kind)
	}
	v := reflect.ValueOf(s)
	for i := 1; i < v.NumField(); i++ { // field 0 is Kind
		if name := v.Type().Field(i).Name; !v.Field(i).IsZero() && !slices.Contains(read, name) {
			return fmt.Errorf("%s is not read by %s faults", name, s.Kind)
		}
	}
	var fields []error
	switch s.Kind {
	case KindCrash:
		if math.IsNaN(s.OffFraction) || s.OffFraction < 0 || s.OffFraction >= 1 {
			return fmt.Errorf("OffFraction must be in [0, 1), got %v", s.OffFraction)
		}
		fields = []error{finiteNonNeg("Cycle", s.Cycle)}
	case KindDrain:
		if math.IsNaN(s.CapacityJ) || math.IsInf(s.CapacityJ, 0) || s.CapacityJ <= 0 {
			return fmt.Errorf("CapacityJ must be positive and finite, got %v", s.CapacityJ)
		}
		fields = []error{finiteNonNeg("Period", s.Period)}
	case KindDegrade:
		fields = []error{finite("OffsetDB", s.OffsetDB),
			finiteNonNeg("Period", s.Period), finiteNonNeg("Duration", s.Duration)}
	case KindJam:
		fields = []error{finite("TxPowerDBm", s.TxPowerDBm), finiteNonNeg("Period", s.Period),
			finiteNonNeg("Burst", s.Burst), finiteNonNeg("SpeedMps", s.SpeedMps)}
	}
	for _, err := range fields {
		if err != nil {
			return err
		}
	}
	for _, id := range s.Exclude {
		if id < 0 || id >= n {
			return fmt.Errorf("excluded node %d outside [0,%d)", id, n)
		}
	}
	return nil
}

// finiteNonNeg rejects NaN, ±Inf, and negative values for fields where
// zero means "use the default". Every time-like field validates through
// here: a negative or NaN period would otherwise reach sim.NewTicker
// unchecked and either panic mid-install or corrupt the event heap
// ordering.
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

// orDefault returns v when it is positive and def otherwise: a
// validated time, speed or period of zero takes its default.
func orDefault(v, def float64) float64 {
	if v > 0 {
		return v
	}
	return def
}

// installCrash starts one duty-cycle process per selected node, in
// ascending id order. Each draws from the stream labelled
// (seed, rng.StreamFailure, spec index, id), so two crash specs that
// cover the same node drive independent duty cycles.
func (inj *Injector) installCrash(s Spec, idx int) {
	for _, n := range selectNodes(inj.nw, s.Exclude) {
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

// installDrain gives each selected node a CapacityJ budget, polled
// every Period by a deterministic ticker that permanently fails the
// node once cumulative consumption crosses it. The meter's lazy accrual
// is idempotent, so polling never changes any measured value. A
// depleted node that something else (a crash duty cycle) revives is
// re-failed on the next tick: batteries stay dead.
func (inj *Injector) installDrain(s Spec) {
	nodes := selectNodes(inj.nw, s.Exclude)
	dead := make([]bool, len(nodes))
	k := inj.nw.Kernel
	t := sim.NewTicker(k, sim.Time(orDefault(s.Period, 1)), func() {
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

// installDegrade shadows links: every Period a random in-range link is
// attenuated by OffsetDB in both directions for Duration, then restored
// — a deep fade severing one edge of the topology at a time. Link picks
// draw from the spec's StreamFault child, never from the frame fading
// stream, so a degrade spec does not perturb per-frame fading draws.
func (inj *Injector) installDegrade(s Spec, idx int) {
	off := s.OffsetDB
	if off == 0 {
		off = -25
	}
	dur := sim.Time(orDefault(s.Duration, 1))
	r := inj.stream(idx)
	ch := inj.nw.Channel
	k := inj.nw.Kernel
	var buf []int
	t := sim.NewTicker(k, sim.Time(orDefault(s.Period, 1)), func() {
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

// installJam starts a roaming jammer: it appears at a uniform random
// position, radiates Burst-long wideband bursts every Period through
// the channel's interference hook, and random-walks SpeedMps × Period
// between bursts, clamped to the terrain. Jam signals raise the noise
// floor and hold carrier sense busy but never decode, and their power
// is the deterministic propagation mean — the jammer draws only from
// the spec's StreamFault child.
func (inj *Injector) installJam(s Spec, idx int) {
	tx := s.TxPowerDBm
	if tx == 0 {
		tx = 24.5
	}
	period := orDefault(s.Period, 250e-3)
	burst := sim.Time(orDefault(s.Burst, 5e-3))
	step := orDefault(s.SpeedMps, 10) * period
	r := inj.stream(idx)
	rect := inj.nw.Rect
	pos := geo.UniformPoints(r, rect, 1)[0]
	ch := inj.nw.Channel
	t := sim.NewTicker(inj.nw.Kernel, sim.Time(period), func() {
		inj.jamBursts.Inc()
		inj.jamHits.Add(uint64(ch.InjectInterference(pos, tx, burst)))
		angle := 2 * math.Pi * r.Float64()
		pos = rect.Clamp(geo.Point{X: pos.X + step*math.Cos(angle), Y: pos.Y + step*math.Sin(angle)})
	})
	t.Start()
}
