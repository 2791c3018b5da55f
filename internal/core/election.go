package core

import (
	"math/rand"

	"routeless/internal/metrics"
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// Message is what electors and arbiters exchange. The engine is written
// against the tiny Medium interface below, but Cluster, an abstract
// neighborhood with one fixed latency, is its only implementation: no
// medium runs the election over the PHY/MAC stack (ROADMAP item 25).
type Message struct {
	Kind   packet.Kind   // KindSync, KindAnnounce or KindAck
	Round  uint32        // election round, bumped by arbiter retriggers
	Leader packet.NodeID // announced/acknowledged leader
}

// Medium broadcasts a message from a node to whoever can hear it.
// Delivery (or loss, or collision) is the medium's business.
type Medium interface {
	Broadcast(from packet.NodeID, msg Message)
}

// Outcome is an elector's view of a finished round.
type Outcome struct {
	Round  uint32
	Leader packet.NodeID // packet.None when the node never learned one
	Won    bool          // this node announced itself
}

// Elector is one node's participation in local leader elections. It is
// driven by ObserveSync (the implicit synchronization point) and
// Handle (messages from the medium), and reports via OnOutcome.
type Elector struct {
	id     packet.NodeID
	medium Medium
	policy BackoffPolicy
	stream *rand.Rand // the attached Cluster's stream; see beginRound

	bid     Contender
	round   uint32
	ctx     Context
	decided bool
	outcome Outcome

	// OnOutcome fires once per round, when the node either announces
	// itself or learns the leader. Optional.
	OnOutcome func(Outcome)

	stats [numElectorSeries]metrics.Counter32
}

// ElectorSeries indexes one of an elector's counters.
type ElectorSeries uint8

// The elector's counters.
const (
	Syncs      ElectorSeries = iota // synchronization points observed
	Announces                       // rounds this node claimed leadership
	Cancels                         // backoffs cancelled by someone else's win
	Abstained                       // rounds the policy declined to compete
	AckCancels                      // cancellations caused by arbiter ACKs
	numElectorSeries
)

// NewElector builds an elector for node id using the given policy. A
// round whose Context has no Rand draws from the stream of the Cluster
// the elector is attached to (AttachElector).
func NewElector(k *sim.Kernel, id packet.NodeID, medium Medium, policy BackoffPolicy) *Elector {
	e := &Elector{id: id, medium: medium, policy: policy}
	e.bid.Init(k, (*electorBid)(e))
	e.bid.Phase = Done // no round yet: nothing to cancel
	return e
}

// ID returns the elector's node id.
func (e *Elector) ID() packet.NodeID { return e.id }

// Count returns the current value of one of the elector's counters.
func (e *Elector) Count(s ElectorSeries) uint64 { return e.stats[s].Value() }

// ObserveSync is called when the node observes the implicit
// synchronization point for a round (e.g. the end of a packet
// transmission, or a SYNC message). ctx supplies the metric inputs.
// Rounds are numbered from 1; observing a round not newer than the
// current one is ignored, so duplicate sync observations are harmless.
func (e *Elector) ObserveSync(round uint32, ctx Context) {
	if round <= e.round {
		return // stale or duplicate round
	}
	e.beginRound(round, ctx)
}

func (e *Elector) beginRound(round uint32, ctx Context) {
	e.round = round
	e.ctx = ctx
	e.ctx.Self = e.id
	if e.ctx.Rand == nil {
		// Rounds started by a SYNC message reuse the previous context,
		// which may be empty; fall back to the medium's stream.
		e.ctx.Rand = e.stream
	}
	e.decided = false
	e.outcome = Outcome{Round: round, Leader: packet.None}
	e.stats[Syncs].Inc()
	d, ok := e.policy.Backoff(e.ctx)
	if !ok {
		e.stats[Abstained].Inc()
		e.bid.Stop()
		return
	}
	e.bid.Arm(d)
}

// electorBid is the elector as its bid's handler: a conversion, so
// binding the bid allocates nothing.
type electorBid Elector

// Fire is the bid's expiry.
func (b *electorBid) Fire() { (*Elector)(b).announce() }

// announce fires when the backoff expires uncancelled: claim leadership.
func (e *Elector) announce() {
	e.bid.Phase = Done
	e.decided = true
	e.stats[Announces].Inc()
	e.outcome = Outcome{Round: e.round, Leader: e.id, Won: true}
	e.medium.Broadcast(e.id, Message{Kind: packet.KindAnnounce, Round: e.round, Leader: e.id})
	e.report()
}

// Handle processes a message observed on the medium.
func (e *Elector) Handle(from packet.NodeID, msg Message) {
	switch msg.Kind {
	case packet.KindSync:
		// The arbiter (re)triggered a round. The metric context is the
		// same one we had; real deployments would refresh it from the
		// sync packet itself.
		e.ObserveSync(msg.Round, e.ctx)
	case packet.KindAnnounce:
		if msg.Round != e.round || e.decided {
			return
		}
		if e.bid.Withdraw(nil, nil) {
			e.stats[Cancels].Inc()
		}
		e.decided = true
		e.outcome = Outcome{Round: msg.Round, Leader: msg.Leader}
		e.report()
	case packet.KindAck:
		if msg.Round != e.round {
			return
		}
		if e.bid.Withdraw(nil, nil) {
			e.stats[AckCancels].Inc()
		}
		if !e.decided {
			e.decided = true
			e.outcome = Outcome{Round: msg.Round, Leader: msg.Leader}
			e.report()
		}
	}
}

func (e *Elector) report() {
	if e.OnOutcome != nil {
		e.OnOutcome(e.outcome)
	}
}

// Current returns the node's view of the current round.
func (e *Elector) Current() Outcome { return e.outcome }

// Arbiter implements §2's reliability extension: a node within range of
// every participant that triggers the synchronization point, broadcasts
// an acknowledgement when it hears an announcement, and re-triggers the
// round when it hears nothing within Timeout. "Eventually there will be
// at least one local leader elected."
type Arbiter struct {
	id     packet.NodeID
	medium Medium

	// Timeout is how long the arbiter waits for an announcement before
	// re-triggering.
	Timeout sim.Time
	// MaxRetries bounds re-triggers; 0 means unbounded.
	MaxRetries int

	timer   sim.Timer
	round   uint32
	leader  packet.NodeID
	done    bool
	retries int

	// OnElected fires when the arbiter acknowledges a leader.
	OnElected func(leader packet.NodeID, round uint32)
	// OnGaveUp fires when MaxRetries is exhausted.
	OnGaveUp func(round uint32)

	stats [numArbiterSeries]metrics.Counter32
}

// ArbiterSeries indexes one of an arbiter's counters.
type ArbiterSeries uint8

// The arbiter's counters.
const (
	Triggers ArbiterSeries = iota // sync broadcasts (initial + retries)
	Acks                          // acknowledgements broadcast
	numArbiterSeries
)

// NewArbiter builds an arbiter for node id.
func NewArbiter(k *sim.Kernel, id packet.NodeID, medium Medium, timeout sim.Time) *Arbiter {
	a := &Arbiter{id: id, medium: medium, Timeout: timeout}
	sim.InitTimer(&a.timer, k, (*arbiterTimer)(a))
	return a
}

// ID returns the arbiter's node id.
func (a *Arbiter) ID() packet.NodeID { return a.id }

// Count returns the current value of one of the arbiter's counters.
func (a *Arbiter) Count(s ArbiterSeries) uint64 { return a.stats[s].Value() }

// Leader returns the elected leader, or packet.None.
func (a *Arbiter) Leader() packet.NodeID {
	if !a.done {
		return packet.None
	}
	return a.leader
}

// Trigger starts a new election round by broadcasting the
// synchronization packet.
func (a *Arbiter) Trigger() {
	a.round++
	a.done = false
	a.retries = 0
	a.leader = packet.None
	a.broadcastSync()
}

func (a *Arbiter) broadcastSync() {
	a.stats[Triggers].Inc()
	a.medium.Broadcast(a.id, Message{Kind: packet.KindSync, Round: a.round})
	a.timer.Reset(a.Timeout)
}

// Handle processes a message observed by the arbiter.
func (a *Arbiter) Handle(from packet.NodeID, msg Message) {
	if msg.Kind != packet.KindAnnounce || msg.Round != a.round || a.done {
		return
	}
	a.done = true
	a.leader = msg.Leader
	a.timer.Stop()
	a.stats[Acks].Inc()
	a.medium.Broadcast(a.id, Message{Kind: packet.KindAck, Round: a.round, Leader: msg.Leader})
	if a.OnElected != nil {
		a.OnElected(msg.Leader, a.round)
	}
}

// arbiterTimer is the arbiter as its timer's handler: a conversion, so
// binding the timer allocates nothing.
type arbiterTimer Arbiter

// Fire is the arbiter's timeout.
func (t *arbiterTimer) Fire() { (*Arbiter)(t).onTimeout() }

func (a *Arbiter) onTimeout() {
	if a.done {
		return
	}
	a.retries++
	if a.MaxRetries > 0 && a.retries > a.MaxRetries {
		if a.OnGaveUp != nil {
			a.OnGaveUp(a.round)
		}
		return
	}
	// Re-trigger as a fresh round so every participant — including
	// nodes that announced into a collision — competes again.
	a.round++
	a.broadcastSync()
}
