package core

import (
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// Phase is where a contender's bid stands. The numbering is part of
// Routeless Routing's snapshot digest layout.
type Phase uint8

// A bid's phases, in the order it moves through them.
const (
	Pending Phase = iota // backoff armed; cancelling stops the timer
	Queued               // won; the frame waits in the MAC queue
	OnAir                // the frame left the air and can no longer be recalled
	Done                 // withdrawn, settled or given up
)

// Recaller withdraws a frame that has not reached the air; *mac.MAC is one.
type Recaller interface {
	Dequeue(pkt *packet.Packet) bool
}

// Contender is one node's bid in one local leader election (§2): arm a
// metric-driven backoff at the synchronization point, win when it
// expires, stand down on overhearing the winner. Flooding's
// rebroadcasts, Routeless Routing's relays and discovery forwards, and
// the Elector all bid through it; the owner sets the phase when the
// timer fires. The timer is held by value and its events carry its own
// address, so a Contender must not be copied after Init.
type Contender struct {
	Phase   Phase
	Backoff sim.Time // the drawn delay, also the won frame's queue priority
	Timer   sim.Timer
}

// Init binds the timer to k; h fires on every expiry. An owner that is
// its own handler (a per-packet state with a Fire method) binds at no
// allocation.
func (c *Contender) Init(k *sim.Kernel, h sim.Handler) { sim.InitTimer(&c.Timer, k, h) }

// Arm starts the bid with the delay the policy drew.
func (c *Contender) Arm(d sim.Time) {
	c.Phase, c.Backoff = Pending, d
	c.Timer.Reset(d)
}

// Withdraw cancels the bid: it stops the timer while Pending, or recalls
// frame from q while Queued. It reports whether it did; the bid is Done
// exactly when it returns true.
func (c *Contender) Withdraw(q Recaller, frame *packet.Packet) bool {
	switch c.Phase {
	case Pending:
		c.Timer.Stop()
	case Queued:
		if !q.Dequeue(frame) {
			return false // on the air already
		}
	default:
		return false
	}
	c.Phase = Done
	return true
}

// Stop ends the bid in any phase. A zero Contender has no timer to stop.
func (c *Contender) Stop() {
	c.Timer.Stop()
	c.Phase = Done
}
