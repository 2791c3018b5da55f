package scenario

import (
	"fmt"

	"routeless/internal/flood"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/phy"
	"routeless/internal/propagation"
	"routeless/internal/routing"
	"routeless/internal/sim"
)

// BuildOptions tunes Build without touching the document itself —
// nothing here may change simulation results.
type BuildOptions struct {
	// Runtime reuses a sweep worker's arena across builds. The assembler
	// resets it, so only the allocation count differs from a fresh
	// runtime (the bit-for-bit pooling contract from internal/sim).
	Runtime *node.Runtime
}

// Build validates the document and constructs the run at t=0.
func Build(sc Scenario) (*Run, error) { return BuildWith(sc, BuildOptions{}) }

// BuildWith is Build with explicit options: it lowers the document to
// a Spec and hands that to Assemble.
func BuildWith(sc Scenario, opts BuildOptions) (*Run, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	plan, err := sc.Plan()
	if err != nil {
		// Validate accepted the document, so this is unreachable; keep
		// the error path anyway rather than a silent nil plan.
		return nil, fmt.Errorf("%w: %w", ErrBuild, err)
	}
	sp := Spec{
		Net: node.Config{
			N:         sc.N,
			Rect:      sc.Rect(),
			Positions: positions(sc),
			Range:     sc.Range,
			Seed:      sc.Seed,
			Fading:    sc.Fading,
			Runtime:   opts.Runtime,
		},
		Install: Installer(sc.Protocol, sim.Time(sc.Lambda), sc.Range),
		Flows: func(*node.Network) []CBRFlow {
			flows := make([]CBRFlow, len(sc.Flows))
			for i, f := range sc.Flows {
				flows[i] = CBRFlow{
					Src: packet.NodeID(f.Src), Dst: packet.NodeID(f.Dst),
					Interval: sim.Time(sc.Interval), Size: sc.DataSize,
				}
			}
			return flows
		},
		Mobility: sc.Mobility,
		Plan:     plan,
		Duration: sim.Time(sc.Duration),
	}
	if sc.Placement == PlaceUniform {
		sp.Net.EnsureConnected = sc.Connected
	}
	r, err := Assemble(sp)
	if err != nil {
		return nil, err
	}
	r.sc = sc
	return r, nil
}

// Installer returns the Spec.Install for one of the document protocol
// names at its document-level settings: lambda is the backoff quantum
// (0 means the 10 ms default) and rangeM the calibrated transmission
// range SSAF maps its delay band onto.
func Installer(proto string, lambda sim.Time, rangeM float64) func(nw *node.Network) {
	if lambda == 0 {
		lambda = 10e-3
	}
	var factory func(n *node.Node) node.Protocol
	switch proto {
	case ProtoCounter1:
		fcfg := flood.Counter1Config(lambda)
		return func(nw *node.Network) { flood.Install(nw, fcfg) }
	case ProtoSSAF:
		fcfg := SSAFConfig(lambda, rangeM)
		return func(nw *node.Network) { flood.Install(nw, fcfg) }
	case ProtoRouteless:
		rcfg := routing.RoutelessConfig{Lambda: lambda}
		factory = func(*node.Node) node.Protocol { return routing.NewRouteless(rcfg) }
	case ProtoAODV:
		factory = func(*node.Node) node.Protocol { return routing.NewAODV() }
	case ProtoGradient:
		factory = func(*node.Node) node.Protocol { return routing.NewGradient() }
	default:
		// Validate rejects unknown protocols before Build gets here.
		panic("scenario: unknown protocol " + proto)
	}
	return func(nw *node.Network) { nw.Install(factory) }
}

// SSAFConfig returns the SSAF flooding configuration for a calibrated
// range: the RSSI span SSAF maps onto its delay band runs from the
// decode threshold (far edge) up to the power at one tenth of the
// transmission range (near).
func SSAFConfig(lambda sim.Time, rangeM float64) flood.Config {
	model := propagation.NewFreeSpace()
	params := phy.DefaultParams(model, rangeM)
	maxDBm := propagation.ThresholdFor(model, params.TxPowerDBm, rangeM/10)
	return flood.SSAFConfig(lambda, params.RxThreshDBm, maxDBm)
}
