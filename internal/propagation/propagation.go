// Package propagation implements the radio propagation the paper
// relies on — free-space path loss, which every one of its simulations
// uses (§3), and the Rayleigh fading it argues SSAF survives — and the
// calibration helpers that turn "transmission range of roughly 250
// meters" (§4.3) into concrete power thresholds.
//
// Power bookkeeping convention: the channel works in milliwatts (transmit
// power times the linear path Gain, times a unit-mean Rayleigh factor);
// dBm is for calibration (ReceivedPower, RangeFor, ThresholdFor) and for
// the RSSI a decoded frame reports.
package propagation

import (
	"math"
	"math/rand"
)

// SpeedOfLight in meters per second; used for propagation delay and
// wavelength computation.
const SpeedOfLight = 299792458.0

// DBmToMilliwatt converts dBm to mW.
func DBmToMilliwatt(dbm float64) float64 { return math.Pow(10, dbm/10) }

// MilliwattToDBm converts mW to dBm.
func MilliwattToDBm(mw float64) float64 { return 10 * math.Log10(mw) }

// FreeSpace is the Friis free-space model used for all of the paper's
// simulations ("In all the simulations, the free space propagation
// model was used", §3):
//
//	Pr = Pt · Gt · Gr · λ² / ((4π)² · d² · L)
type FreeSpace struct {
	// FrequencyHz is the carrier frequency; 914 MHz (the classic
	// WaveLAN band used by ns-2 and SENSE) by default.
	FrequencyHz float64
	// GainTx, GainRx are antenna gains (linear); 1.0 by default.
	GainTx, GainRx float64
	// SystemLoss L ≥ 1 (linear); 1.0 by default.
	SystemLoss float64
	// RefDistance is the near-field cutoff in meters below which the
	// model is not valid; received power is evaluated at this distance
	// for anything closer. Default 1 m.
	RefDistance float64
}

// NewFreeSpace returns the default free-space model at 914 MHz with
// unity gains.
func NewFreeSpace() *FreeSpace {
	return &FreeSpace{FrequencyHz: 914e6, GainTx: 1, GainRx: 1, SystemLoss: 1, RefDistance: 1}
}

// Wavelength returns λ in meters.
func (m *FreeSpace) Wavelength() float64 { return SpeedOfLight / m.FrequencyHz }

// Gain returns the linear path gain Pr/Pt at distance d meters, d
// clamped to RefDistance.
func (m *FreeSpace) Gain(d float64) float64 {
	if d < m.RefDistance {
		d = m.RefDistance
	}
	lambda := m.Wavelength()
	return m.GainTx * m.GainRx * lambda * lambda /
		((4 * math.Pi) * (4 * math.Pi) * d * d * m.SystemLoss)
}

// ReceivedPower returns the power (dBm) observed at distance d meters
// from a transmitter emitting txDBm: the calibration-side image of
// Gain. d is clamped to RefDistance.
func (m *FreeSpace) ReceivedPower(txDBm, d float64) float64 {
	return txDBm + 10*math.Log10(m.Gain(d))
}

// Rayleigh models small-scale multipath fading: received power is the
// mean scaled by an exponentially distributed factor (unit mean). The
// paper notes (§3) that under Rayleigh "the signal strength may vary
// dramatically because of the multiple path interference" while the
// large-scale distance trend still holds — SSAF's robustness to this is
// exercised in the ablation tests.
type Rayleigh struct{}

// Fade returns the faded received power (dBm) given the deterministic
// mean power, drawing the fading factor from r.
func (Rayleigh) Fade(r *rand.Rand, meanDBm float64) float64 {
	// Exponential with unit mean in the power (linear) domain.
	f := r.ExpFloat64()
	if f <= 0 {
		f = math.SmallestNonzeroFloat64
	}
	return meanDBm + 10*math.Log10(f)
}

// RangeFor returns the maximum distance at which the model delivers at
// least thresholdDBm for a transmitter at txDBm, found by bisection
// over [lo, hi]. It returns 0 when even lo is below threshold and hi
// when hi is still above threshold.
func RangeFor(m *FreeSpace, txDBm, thresholdDBm, lo, hi float64) float64 {
	if m.ReceivedPower(txDBm, lo) < thresholdDBm {
		return 0
	}
	if m.ReceivedPower(txDBm, hi) >= thresholdDBm {
		return hi
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if m.ReceivedPower(txDBm, mid) >= thresholdDBm {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// ThresholdFor returns the receive threshold (dBm) that yields the
// desired range for the model and transmit power: the inverse of
// RangeFor. This is how experiments realize "transmission range of
// roughly 250 meters".
func ThresholdFor(m *FreeSpace, txDBm, rangeMeters float64) float64 {
	return m.ReceivedPower(txDBm, rangeMeters)
}

// Delay returns the propagation delay (seconds) over d meters. The
// paper's implicit-synchronization argument assumes this is negligible
// relative to backoff scales; the simulator still models it.
func Delay(d float64) float64 { return d / SpeedOfLight }
