// Package core implements the paper's primary contribution: the local
// leader election operator (§2). A group of nodes that observe a common
// implicit synchronization point each compute a metric-derived backoff
// delay; the node whose timer expires first broadcasts an announcement
// and becomes the local leader, while everyone who hears the
// announcement cancels. An optional arbiter acknowledges the winner and
// re-triggers the round when nobody announces.
//
// The backoff metric is pluggable (BackoffPolicy). The paper derives
// two protocols from two metrics: signal strength (SSAF, §3) and
// hop-count gradient (Routeless Routing, §4); both policies live here
// and are shared with internal/flood and internal/routing.
package core

import (
	"math"
	"math/rand"

	"routeless/internal/packet"
	"routeless/internal/sim"
)

// Context carries everything a node knows at the implicit
// synchronization point, from which the backoff delay is derived.
type Context struct {
	// Self is the deciding node.
	Self packet.NodeID
	// RSSIdBm is the received signal strength of the packet that
	// established the synchronization point (SSAF's metric).
	RSSIdBm float64
	// DistanceToSender is the true geometric distance in meters to the
	// node that created the synchronization point, when the deployment
	// knows positions (location-based flooding's metric); negative when
	// unavailable.
	DistanceToSender float64
	// HopsToTarget is the node's active-table distance to the packet's
	// target, or -1 when unknown (Routeless Routing's metric).
	HopsToTarget int
	// ExpectedHops is the expected-hop-count field carried by the
	// packet being relayed.
	ExpectedHops int
	// Rand supplies the policy's tie-breaking randomness.
	Rand *rand.Rand
}

// BackoffPolicy turns an observation context into a backoff delay. The
// boolean reports whether the node participates at all: a node with no
// useful metric (e.g. no active-table entry) can abstain.
type BackoffPolicy interface {
	Backoff(ctx Context) (sim.Time, bool)
}

// Uniform is the classic CSMA choice: a delay uniform over [0, Max).
// The paper's counter-1 flooding uses it; it deliberately wastes the
// prioritization opportunity and serves as the baseline.
type Uniform struct {
	Max sim.Time
}

// Backoff implements BackoffPolicy.
func (u Uniform) Backoff(ctx Context) (sim.Time, bool) {
	return sim.Time(ctx.Rand.Float64()) * u.Max, true
}

// SignalStrength is SSAF's policy (§3): the stronger the received
// signal — hence the closer the node to the previous sender — the
// longer the delay, so distant nodes win the relay election. The paper
// gives the idea but not a formula; this implementation maps RSSI
// linearly between the decode threshold (delay→0) and the power at a
// reference near distance (delay→Lambda), plus a small jitter to break
// ties between equidistant nodes.
type SignalStrength struct {
	// Lambda is the maximum deterministic delay (the far↔near spread).
	Lambda sim.Time
	// MinDBm is the weakest decodable power (maps to zero delay).
	MinDBm float64
	// MaxDBm is the power at the reference near distance (maps to
	// Lambda).
	MaxDBm float64
	// JitterFrac scales the uniform tie-breaking term relative to
	// Lambda; 0.1 works well.
	JitterFrac float64
}

// Backoff implements BackoffPolicy.
func (s SignalStrength) Backoff(ctx Context) (sim.Time, bool) {
	span := s.MaxDBm - s.MinDBm
	var norm float64
	if span > 0 {
		norm = (ctx.RSSIdBm - s.MinDBm) / span
	}
	norm = math.Min(math.Max(norm, 0), 1)
	d := sim.Time(norm)*s.Lambda + sim.Time(ctx.Rand.Float64()*s.JitterFrac)*s.Lambda
	return d, true
}

// HopGradient is Routeless Routing's policy (§4.1): the delay is
// derived from the node's known hop distance to the target (h_table)
// versus the expected remaining distance carried by the packet
// (h_expected):
//
//	d = λ·U(0,1)                         if h_table ≤ h_expected
//	d = λ·(h_table − h_expected + U(0,1)) if h_table > h_expected
//
// The printed equation is typographically corrupted in the paper; this
// reconstruction satisfies every property the prose states: nodes at or
// inside the expected distance draw below λ, nodes farther than
// expected draw above λ in proportion to the excess, and smaller
// h_table means a smaller delay. Nodes with no table entry abstain.
type HopGradient struct {
	// Lambda is the paper's λ: the per-hop-excess delay quantum. Too
	// small risks collisions, too large inflates end-to-end delay
	// (§4.1); the ABL2 ablation sweeps it.
	Lambda sim.Time
}

// Backoff implements BackoffPolicy.
func (h HopGradient) Backoff(ctx Context) (sim.Time, bool) {
	if ctx.HopsToTarget < 0 {
		return 0, false // no gradient information: abstain
	}
	u := sim.Time(ctx.Rand.Float64())
	excess := ctx.HopsToTarget - ctx.ExpectedHops
	if excess <= 0 {
		return h.Lambda * u, true
	}
	return h.Lambda * (sim.Time(excess) + u), true
}

// LocationAware is the location-based flooding policy SSAF
// approximates (§3: "nodes furthest from the previous sender of the
// packet should be given higher priorities. This is the main idea of
// location-based flooding. However, location information is not
// generally available"). With true positions available it is the upper
// bound on what SSAF's signal-strength proxy can achieve.
type LocationAware struct {
	// Lambda is the maximum deterministic delay.
	Lambda sim.Time
	// Range is the nominal transmission range in meters; distances at
	// Range map to zero delay, at zero to Lambda.
	Range float64
	// JitterFrac scales the uniform tie-breaking term.
	JitterFrac float64
}

// Backoff implements BackoffPolicy; nodes without position information
// abstain.
func (l LocationAware) Backoff(ctx Context) (sim.Time, bool) {
	if ctx.DistanceToSender < 0 || l.Range <= 0 {
		return 0, false
	}
	frac := 1 - ctx.DistanceToSender/l.Range
	frac = math.Min(math.Max(frac, 0), 1)
	return sim.Time(frac)*l.Lambda + sim.Time(ctx.Rand.Float64()*l.JitterFrac)*l.Lambda, true
}

// GradientSignal is the hop-gradient policy with signal-strength
// tie-breaking inside each band — the metric combination the paper's
// conclusion calls for ("an appropriately chosen metric … or a
// combination of several metrics"). Between gradient bands it behaves
// exactly like HopGradient; within a band, weaker signal (a node
// farther from the relayer, hence making more geographic progress)
// yields a shorter delay, exactly as in SSAF. This sharpens elections
// twice over: same-band candidates are ordered rather than tied, and
// the habitual winner is the one whose own transmission covers most of
// its competitors.
type GradientSignal struct {
	// Lambda is the band width λ (§4.1).
	Lambda sim.Time
	// MinDBm/MaxDBm span the decode-threshold..near-reference receive
	// powers, as in SignalStrength.
	MinDBm, MaxDBm float64
	// JitterFrac is the random share of the within-band delay
	// (defaulted to 0.25 by users); the rest is the signal term.
	JitterFrac float64
}

// Backoff implements BackoffPolicy.
func (g GradientSignal) Backoff(ctx Context) (sim.Time, bool) {
	if ctx.HopsToTarget < 0 {
		return 0, false
	}
	span := g.MaxDBm - g.MinDBm
	var norm float64
	if span > 0 {
		norm = (ctx.RSSIdBm - g.MinDBm) / span
	}
	norm = math.Min(math.Max(norm, 0), 1)
	jf := g.JitterFrac
	within := sim.Time((1-jf)*norm+jf*ctx.Rand.Float64()) * g.Lambda
	excess := ctx.HopsToTarget - ctx.ExpectedHops
	if excess <= 0 {
		return within, true
	}
	return g.Lambda*sim.Time(excess) + within, true
}
