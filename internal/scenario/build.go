package scenario

import (
	"fmt"

	"routeless/internal/fault"
	"routeless/internal/flood"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/phy"
	"routeless/internal/propagation"
	"routeless/internal/rng"
	"routeless/internal/routing"
	"routeless/internal/sim"
	"routeless/internal/traffic"
)

// BuildOptions tunes Build without touching the document itself —
// nothing here may change simulation results.
type BuildOptions struct {
	// Runtime reuses a sweep worker's arena across builds. The assembler
	// resets it, so only the allocation count differs from a fresh
	// runtime (the bit-for-bit pooling contract from internal/sim).
	Runtime *node.Runtime
	// LinkCacheCap, when positive, bounds how many per-node link caches
	// stay resident (node.Config.LinkCacheCap): an evicted cache is
	// rebuilt on its next transmission, so it bounds memory only.
	LinkCacheCap int
}

// Build validates the document and constructs the run at t=0.
func Build(sc Scenario) (*Run, error) { return BuildWith(sc, BuildOptions{}) }

// BuildWith is Build with explicit options: it lowers the validated
// document into the assembler.
func BuildWith(sc Scenario, opts BuildOptions) (*Run, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return assemble(sc, opts)
}

// assemble constructs the run of a validated document at t=0.
//
// The construction order is frozen — runtime reset, network, protocol,
// app tap, flows (in list order), movers, faults (in list order) —
// because stream creation order, metric registration order, and kernel
// sequence numbers all derive from it. Every run in the repo is wired
// here, so a document that spells out a figure cell's parameters
// reproduces that cell bit for bit.
//
// assemble owns the runtime reset: pool watermarks start from zero
// exactly as with a fresh runtime (snapshots hash them), and the free
// lists shrink to what the previous run on this worker needed.
func assemble(sc Scenario, opts BuildOptions) (*Run, error) {
	if rt := opts.Runtime; rt != nil {
		rt.Reset()
	}
	nw, err := node.New(node.Config{
		N:         sc.N,
		Rect:      sc.Rect(),
		Positions: positions(sc),
		Range:     sc.Range,
		Seed:      sc.Seed,
		// Validate admits Connected with uniform placement only.
		EnsureConnected: sc.Connected,
		Fading:          sc.Fading,
		Runtime:         opts.Runtime,
		LinkCacheCap:    opts.LinkCacheCap,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBuild, err)
	}
	r := &Run{sc: sc, nw: nw}
	install(nw, sc)

	r.tap = newAppTap(nw)
	r.cbrs = make([]*traffic.CBR, len(sc.Flows))
	for i, f := range sc.Flows {
		interval, size := sc.Interval, sc.DataSize
		if f.Interval > 0 {
			interval = f.Interval
		}
		if f.Size > 0 {
			size = f.Size
		}
		c := traffic.NewCBR(nw.Nodes[f.Src], packet.NodeID(f.Dst), sim.Time(interval), size)
		if f.Start > 0 {
			c.StartAt(sim.Time(f.Start))
		} else {
			c.Start()
		}
		r.cbrs[i] = c
	}

	if m := sc.Mobility; m != nil {
		for i := 0; i < m.Movers; i++ {
			w := node.NewWaypoint(nw, nw.Nodes[i], nw.RNG.New(nw.Seed, rng.StreamFuzz, SubMobility, uint64(i)))
			w.MinSpeed, w.MaxSpeed = m.MinSpeed, m.MaxSpeed
			w.Start()
			r.movers = append(r.movers, w)
		}
	}

	if r.inj, err = fault.Install(nw, sc.Faults); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBuild, err)
	}
	return r, nil
}

// install attaches the document's network layer with one nw.Install
// call: its protocol at its backoff quantum λ (0 means 10 ms), tuned by
// its flood or routeless block.
func install(nw *node.Network, sc Scenario) {
	lambda := sim.Time(sc.Lambda)
	if lambda == 0 {
		lambda = 10e-3
	}
	switch sc.Protocol {
	case ProtoCounter1, ProtoSSAF:
		fcfg := flood.Counter1Config(lambda)
		if sc.Protocol == ProtoSSAF {
			// The RSSI span SSAF maps onto its delay band runs from the
			// decode threshold (far edge) up to the power at one tenth
			// of the transmission range (near).
			model := propagation.NewFreeSpace()
			params := phy.DefaultParams(model, sc.Range)
			maxDBm := propagation.ThresholdFor(model, params.TxPowerDBm, sc.Range/10)
			fcfg = flood.SSAFConfig(lambda, params.RxThreshDBm, maxDBm)
		}
		if fl := sc.Flood; fl != nil {
			fcfg.Cancel, fcfg.TTL = fl.Cancel, fl.TTL
		}
		flood.Install(nw, fcfg)
	case ProtoRouteless:
		rcfg := routing.RoutelessConfig{Lambda: lambda}
		if rr := sc.Routeless; rr != nil {
			rcfg.PathMargin, rcfg.SignalTieBreak = rr.PathMargin, rr.SignalTieBreak
		}
		nw.Install(func(*node.Node) node.Protocol { return routing.NewRouteless(rcfg) })
	case ProtoAODV:
		nw.Install(func(*node.Node) node.Protocol { return routing.NewAODV() })
	case ProtoGradient:
		nw.Install(func(*node.Node) node.Protocol { return routing.NewGradient() })
	default:
		// Validate rejects unknown protocols before Build gets here.
		panic("scenario: unknown protocol " + sc.Protocol)
	}
}
