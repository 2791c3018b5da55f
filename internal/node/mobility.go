package node

import (
	"math/rand"

	"routeless/internal/geo"
	"routeless/internal/sim"
)

// Waypoint implements the random-waypoint mobility model, the standard
// MANET mobility generator: pick a uniform destination in the terrain,
// walk there at a uniform-random speed, pause, repeat. The paper's own
// evaluation is static (failures model dynamics instead), but Routeless
// Routing's route-free design targets "wireless networks with dynamic
// topological changes" — this extension lets that claim be tested.
type Waypoint struct {
	// MinSpeed and MaxSpeed bound the leg speed in m/s; defaults 1, 5.
	MinSpeed, MaxSpeed float64
	// MinPause and MaxPause bound the dwell at each waypoint in
	// seconds; defaults 0, 2.
	MinPause, MaxPause float64
	// Tick is the position-update quantum in seconds; default 0.25.
	Tick float64

	nw    *Network
	node  *Node
	rng   *rand.Rand
	rect  geo.Rect
	timer *sim.Timer

	dest    geo.Point
	speed   float64
	legs    uint64
	moving  bool
	stopped bool
}

// NewWaypoint builds a stopped mobility process for n over its
// network's terrain.
func NewWaypoint(nw *Network, n *Node, r *rand.Rand) *Waypoint {
	w := &Waypoint{
		MinSpeed: 1, MaxSpeed: 5,
		MinPause: 0, MaxPause: 2,
		Tick: 0.25,
		nw:   nw, node: n, rng: r, rect: nw.Rect,
	}
	w.timer = sim.NewTimer(n.Kernel, w.step)
	return w
}

// Start begins the first pause-then-move cycle.
func (w *Waypoint) Start() {
	w.stopped = false
	w.pause()
}

// Stop freezes the node at its current position.
func (w *Waypoint) Stop() {
	w.stopped = true
	w.timer.Stop()
}

// Legs returns how many waypoints have been reached.
func (w *Waypoint) Legs() uint64 { return w.legs }

func (w *Waypoint) uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + w.rng.Float64()*(hi-lo)
}

func (w *Waypoint) pause() {
	w.moving = false
	w.timer.Reset(sim.Time(w.uniform(w.MinPause, w.MaxPause)))
}

func (w *Waypoint) pickLeg() {
	w.dest = geo.Point{
		X: w.rect.Min.X + w.rng.Float64()*w.rect.Width(),
		Y: w.rect.Min.Y + w.rng.Float64()*w.rect.Height(),
	}
	w.speed = w.uniform(w.MinSpeed, w.MaxSpeed)
	w.moving = true
	w.timer.Reset(sim.Time(w.Tick))
}

func (w *Waypoint) step() {
	if w.stopped {
		return
	}
	if !w.moving {
		w.pickLeg()
		return
	}
	pos := w.node.Pos
	remaining := pos.Dist(w.dest)
	stride := w.speed * w.Tick
	if stride >= remaining {
		w.nw.MoveNode(w.node.ID, w.dest)
		w.legs++
		w.pause()
		return
	}
	frac := stride / remaining
	w.nw.MoveNode(w.node.ID, geo.Point{
		X: pos.X + (w.dest.X-pos.X)*frac,
		Y: pos.Y + (w.dest.Y-pos.Y)*frac,
	})
	w.timer.Reset(sim.Time(w.Tick))
}
