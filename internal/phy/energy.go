package phy

import "routeless/internal/sim"

// Power is the draw, in watts, of each transceiver state. Defaults
// follow the WaveLAN-class figures used throughout the sensor-network
// literature the paper builds on.
type Power struct {
	Tx    float64
	Rx    float64 // also the cost of decoding a frame
	Idle  float64 // listening, nothing decodable on air
	Sleep float64
	Off   float64
}

// DefaultPower returns typical WaveLAN-class draws.
func DefaultPower() Power {
	return Power{Tx: 0.660, Rx: 0.395, Idle: 0.035, Sleep: 30e-6, Off: 0}
}

func (p Power) draw(s State) float64 {
	switch s {
	case StateTx:
		return p.Tx
	case StateRx:
		return p.Rx
	case StateIdle:
		return p.Idle
	case StateSleep:
		return p.Sleep
	default:
		return p.Off
	}
}

// Energy integrates a radio's consumption over its state trajectory.
// Routeless Routing's headline claim that "any node, even if it is on
// the route, can freely switch to a sleep mode to save energy" (§4.2)
// is quantified with these meters.
type Energy struct {
	// power points at a draw profile shared across meters (the Channel
	// keeps one copy for its whole energies arena — an inline Power per
	// node is 40 identical bytes of mega-scale arena weight).
	power   *Power
	last    sim.Time
	state   State
	joules  float64
	byState [5]float64
}

// Transition charges the elapsed interval at the old state's draw and
// switches to the new state.
func (e *Energy) Transition(now sim.Time, from, to State) {
	e.accumulate(now)
	e.state = to
}

func (e *Energy) accumulate(now sim.Time) {
	dt := float64(now - e.last)
	if dt > 0 {
		j := e.power.draw(e.state) * dt
		e.joules += j
		e.byState[e.state] += j
	}
	e.last = now
}

// Total returns joules consumed up to time now.
func (e *Energy) Total(now sim.Time) float64 {
	e.accumulate(now)
	return e.joules
}

// InState returns joules consumed in a particular state up to now.
func (e *Energy) InState(now sim.Time, s State) float64 {
	e.accumulate(now)
	return e.byState[s]
}
