package node

import "routeless/internal/digest"

// DigestState folds the node's own mutable state into h: position and
// the shared power-failure latch. The radio, MAC,
// and protocol attached to the node are digested separately by the
// snapshot walk (each owns its own DigestState).
func (n *Node) DigestState(h *digest.Hash) {
	h.Int64(int64(n.ID))
	h.Float64(n.Pos.X)
	h.Float64(n.Pos.Y)
	h.Bool(n.failing)
}

// DigestState folds the duty-cycle phase machine into h: the process's
// own up/down phase (deliberately distinct from the node's shared power
// state), accrued downtime, and the open phase's start time.
func (fp *FailureProcess) DigestState(h *digest.Hash) {
	h.Bool(fp.down)
	h.Float64(fp.totalDown)
	h.Float64(float64(fp.downSince))
}

// DigestState folds the random-waypoint leg state into h: destination,
// speed, leg count, and the moving/stopped flags. The tick timer itself
// is captured by the kernel's pending-event digest.
func (w *Waypoint) DigestState(h *digest.Hash) {
	h.Float64(w.dest.X)
	h.Float64(w.dest.Y)
	h.Float64(w.speed)
	h.Uint64(w.legs)
	h.Bool(w.moving)
	h.Bool(w.stopped)
}
