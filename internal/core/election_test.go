package core

import (
	"testing"
	"testing/quick"

	"routeless/internal/packet"
	"routeless/internal/rng"
	"routeless/internal/sim"
)

// buildClique wires n electors into a fully connected cluster.
func buildClique(k *sim.Kernel, n int, policy BackoffPolicy, delay, window sim.Time, loss float64, seed int64) (*Cluster, []*Elector) {
	c := NewCluster(k, n, delay, window, loss, rng.New(seed, rng.StreamElection))
	c.ConnectAll()
	es := make([]*Elector, n)
	for i := 0; i < n; i++ {
		es[i] = NewElector(k, packet.NodeID(i), c, policy)
		c.AttachElector(es[i])
	}
	return c, es
}

func TestSingleLeaderInClique(t *testing.T) {
	k := sim.NewKernel(1)
	_, es := buildClique(k, 10, Uniform{Max: 0.01}, 1e-4, 1e-6, 0, 1)
	ctxs := map[packet.NodeID]Context{}
	cluster := es[0].medium.(*Cluster)
	cluster.TriggerAll(1, ctxs)
	k.Run()
	winners := 0
	var leader packet.NodeID = packet.None
	for _, e := range es {
		o := e.Current()
		if o.Won {
			winners++
			leader = e.ID()
		}
	}
	if winners != 1 {
		t.Fatalf("winners = %d, want exactly 1 in a clique without collisions", winners)
	}
	for _, e := range es {
		if o := e.Current(); o.Leader != leader {
			t.Fatalf("node %v believes leader is %v, want %v", e.ID(), o.Leader, leader)
		}
	}
}

func TestSmallestBackoffWins(t *testing.T) {
	// With a deterministic per-node metric (hop gradient, zero jitter
	// impossible — but distinct bands), the node with the smallest
	// h_table must win.
	k := sim.NewKernel(2)
	policy := HopGradient{Lambda: 0.001}
	_, es := buildClique(k, 5, policy, 1e-5, 1e-7, 0, 2)
	cluster := es[0].medium.(*Cluster)
	ctxs := map[packet.NodeID]Context{}
	for i := range es {
		// Node i is i+1 hops from the target, expected 1: bands are
		// disjoint, node 0 always draws the smallest delay.
		ctxs[packet.NodeID(i)] = Context{HopsToTarget: i + 1, ExpectedHops: 1}
	}
	cluster.TriggerAll(1, ctxs)
	k.Run()
	if !es[0].Current().Won {
		t.Fatalf("node 0 (closest) should win; outcomes: %v", outcomes(es))
	}
	for _, e := range es[1:] {
		if e.Current().Won {
			t.Fatalf("node %v also won", e.ID())
		}
	}
}

func outcomes(es []*Elector) []Outcome {
	out := make([]Outcome, len(es))
	for i, e := range es {
		out[i] = e.Current()
	}
	return out
}

func TestCollisionCanYieldNoLeader(t *testing.T) {
	// §2: "Multiple nodes may choose almost identical backoff delays,
	// leading to a collision." With message latency (0.1 s) far longer
	// than the whole backoff spread (1 ms), every node's timer expires
	// before any announcement lands, all announcements overlap in
	// flight, and the collision window destroys them all.
	k := sim.NewKernel(3)
	_, es := buildClique(k, 5, Uniform{Max: 1e-3}, 0.1, 1e-2, 0, 3)
	cluster := es[0].medium.(*Cluster)
	cluster.TriggerAll(1, map[packet.NodeID]Context{})
	k.Run()
	// Everyone whose timer fired thinks they won; nobody heard anyone.
	for _, e := range es {
		o := e.Current()
		if !o.Won && o.Leader != packet.None {
			t.Fatalf("node %v learned leader %v through a collided medium", e.ID(), o.Leader)
		}
	}
	if cluster.Count(Collided) == 0 {
		t.Fatal("expected collisions")
	}
}

func TestPartitionYieldsMultipleLeaders(t *testing.T) {
	// Two disjoint cliques: one leader each — the §2 "announcement out
	// of radio range" case. "Multiple local leaders may be welcomed for
	// redundancy."
	k := sim.NewKernel(4)
	c := NewCluster(k, 6, 1e-4, 1e-6, 0, rng.New(4, rng.StreamElection))
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}} {
		c.Connect(pair[0], pair[1])
	}
	es := make([]*Elector, 6)
	for i := range es {
		es[i] = NewElector(k, packet.NodeID(i), c, Uniform{Max: 0.01})
		c.AttachElector(es[i])
	}
	c.TriggerAll(1, map[packet.NodeID]Context{})
	k.Run()
	winners := 0
	for _, e := range es {
		if e.Current().Won {
			winners++
		}
	}
	if winners != 2 {
		t.Fatalf("winners = %d, want 2 (one per partition)", winners)
	}
}

func TestArbiterAcknowledgesWinner(t *testing.T) {
	k := sim.NewKernel(5)
	c := NewCluster(k, 6, 1e-4, 1e-6, 0, rng.New(5, rng.StreamElection))
	c.ConnectAll()
	es := make([]*Elector, 5)
	for i := range es {
		es[i] = NewElector(k, packet.NodeID(i), c, Uniform{Max: 0.01})
		c.AttachElector(es[i])
	}
	arb := NewArbiter(k, 5, c, 0.1)
	c.AttachArbiter(arb)
	var elected packet.NodeID = packet.None
	arb.OnElected = func(l packet.NodeID, round uint32) { elected = l }
	arb.Trigger()
	k.Run()
	if elected == packet.None {
		t.Fatal("arbiter never acknowledged a leader")
	}
	if arb.Leader() != elected {
		t.Fatalf("Leader() = %v, want %v", arb.Leader(), elected)
	}
	if arb.Count(Acks) != 1 {
		t.Fatalf("acks = %d, want 1", arb.Count(Acks))
	}
}

func TestArbiterRetriggersThroughLoss(t *testing.T) {
	// A very lossy medium: the first rounds may elect nobody the
	// arbiter hears; §2 requires it to re-trigger until someone wins.
	k := sim.NewKernel(6)
	c := NewCluster(k, 4, 1e-4, 1e-6, 0.7, rng.New(6, rng.StreamElection))
	c.ConnectAll()
	es := make([]*Elector, 3)
	for i := range es {
		es[i] = NewElector(k, packet.NodeID(i), c, Uniform{Max: 0.005})
		c.AttachElector(es[i])
	}
	arb := NewArbiter(k, 3, c, 0.02)
	c.AttachArbiter(arb)
	arb.Trigger()
	k.SetHorizon(60)
	k.Run()
	if arb.Leader() == packet.None {
		t.Fatalf("no leader after unbounded retries (triggers=%d)", arb.Count(Triggers))
	}
	if arb.Count(Triggers) < 2 {
		t.Skip("loss pattern let round 1 through; nothing to assert")
	}
}

func TestArbiterGivesUpAfterMaxRetries(t *testing.T) {
	// No electors attached at all: nobody can ever announce.
	k := sim.NewKernel(7)
	c := NewCluster(k, 2, 1e-4, 1e-6, 0, rng.New(7, rng.StreamElection))
	c.ConnectAll()
	arb := NewArbiter(k, 0, c, 0.01)
	arb.MaxRetries = 3
	gaveUp := false
	arb.OnGaveUp = func(round uint32) { gaveUp = true }
	arb.Trigger()
	k.Run()
	if !gaveUp {
		t.Fatal("arbiter never gave up")
	}
	if got := arb.Count(Triggers); got != 4 { // initial + 3 retries
		t.Fatalf("triggers = %d, want 4", got)
	}
}

func TestAckCancelsPendingBackoffs(t *testing.T) {
	// A node that misses the winner's announcement (directed topology)
	// must still cancel on the arbiter's ACK: §2's "upon the receipt of
	// which other nodes will cancel their backoff timers, even if they
	// have not received any announcement packet."
	k := sim.NewKernel(8)
	c := NewCluster(k, 4, 1e-4, 1e-9, 0, rng.New(8, rng.StreamElection))
	// Node 0: fast candidate. Node 1: slow candidate that cannot hear 0.
	// Node 2: arbiter hearing everyone, heard by everyone.
	c.ConnectOneWay(0, 2)
	c.ConnectOneWay(1, 2)
	c.ConnectOneWay(2, 0)
	c.ConnectOneWay(2, 1)
	e0 := NewElector(k, 0, c, HopGradient{Lambda: 0.001})
	e1 := NewElector(k, 1, c, HopGradient{Lambda: 0.001})
	c.AttachElector(e0)
	c.AttachElector(e1)
	arb := NewArbiter(k, 2, c, 0.5)
	c.AttachArbiter(arb)
	r := rng.New(80, rng.StreamElection)
	// Disjoint bands: node 0 in [0, λ), node 1 in [5λ, 6λ).
	e0.ObserveSync(1, Context{HopsToTarget: 1, ExpectedHops: 1, Rand: r})
	e1.ObserveSync(1, Context{HopsToTarget: 6, ExpectedHops: 1, Rand: r})
	arb.Trigger() // round bookkeeping: arbiter considers this round 1
	k.Run()
	if !e0.Current().Won {
		t.Fatal("node 0 should have won")
	}
	if e1.Current().Won {
		t.Fatal("node 1 should have been cancelled by the ACK")
	}
	if e1.Current().Leader != 0 {
		t.Fatalf("node 1 learned leader %v, want 0", e1.Current().Leader)
	}
	if e1.Count(AckCancels) != 1 {
		t.Fatalf("AckCancels = %d, want 1", e1.Count(AckCancels))
	}
}

func TestStaleRoundIgnored(t *testing.T) {
	k := sim.NewKernel(9)
	_, es := buildClique(k, 3, Uniform{Max: 0.01}, 1e-4, 1e-6, 0, 9)
	cluster := es[0].medium.(*Cluster)
	cluster.TriggerAll(2, map[packet.NodeID]Context{})
	k.Run()
	syncsBefore := es[0].Count(Syncs)
	cluster.TriggerAll(1, map[packet.NodeID]Context{}) // stale
	cluster.TriggerAll(2, map[packet.NodeID]Context{}) // duplicate
	k.Run()
	if es[0].Count(Syncs) != syncsBefore {
		t.Fatal("stale/duplicate round restarted the elector")
	}
}

func TestAbstentionCounted(t *testing.T) {
	k := sim.NewKernel(10)
	_, es := buildClique(k, 3, HopGradient{Lambda: 0.001}, 1e-4, 1e-6, 0, 10)
	cluster := es[0].medium.(*Cluster)
	ctxs := map[packet.NodeID]Context{
		0: {HopsToTarget: -1}, // no table entry: abstains
		1: {HopsToTarget: 2, ExpectedHops: 1},
		2: {HopsToTarget: 3, ExpectedHops: 1},
	}
	cluster.TriggerAll(1, ctxs)
	k.Run()
	if es[0].Count(Abstained) != 1 {
		t.Fatalf("node 0 Abstained = %d, want 1", es[0].Count(Abstained))
	}
	if es[0].Current().Won {
		t.Fatal("abstaining node won")
	}
	// It still learns the leader from the announcement.
	if es[0].Current().Leader == packet.None {
		t.Fatal("abstaining node did not learn the leader")
	}
	if !es[1].Current().Won {
		t.Fatal("node 1 (smallest band) should win")
	}
}

func TestOnOutcomeFiresOncePerRound(t *testing.T) {
	k := sim.NewKernel(11)
	_, es := buildClique(k, 4, Uniform{Max: 0.01}, 1e-4, 1e-6, 0, 11)
	cluster := es[0].medium.(*Cluster)
	counts := make([]int, len(es))
	for i, e := range es {
		i := i
		e.OnOutcome = func(Outcome) { counts[i]++ }
	}
	cluster.TriggerAll(1, map[packet.NodeID]Context{})
	k.Run()
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("node %d OnOutcome fired %d times, want 1", i, c)
		}
	}
}

func TestElectionDeterministicAcrossRuns(t *testing.T) {
	run := func() packet.NodeID {
		k := sim.NewKernel(12)
		_, es := buildClique(k, 8, Uniform{Max: 0.01}, 1e-4, 1e-6, 0.1, 12)
		cluster := es[0].medium.(*Cluster)
		cluster.TriggerAll(1, map[packet.NodeID]Context{})
		k.Run()
		for _, e := range es {
			if e.Current().Won {
				return e.ID()
			}
		}
		return packet.None
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic winner: %v vs %v", a, b)
	}
}

func TestManyRoundsLeaderDistribution(t *testing.T) {
	// Over many uniform-policy rounds in a clique every node should win
	// sometimes — the election does not systematically favor ids.
	k := sim.NewKernel(13)
	const n = 5
	_, es := buildClique(k, n, Uniform{Max: 0.01}, 1e-5, 1e-8, 0, 13)
	cluster := es[0].medium.(*Cluster)
	wins := map[packet.NodeID]int{}
	for round := uint32(1); round <= 200; round++ {
		cluster.TriggerAll(round, map[packet.NodeID]Context{})
		k.Run()
		for _, e := range es {
			if o := e.Current(); o.Round == round && o.Won {
				wins[e.ID()]++
			}
		}
	}
	if len(wins) < n {
		t.Fatalf("only %d/%d nodes ever won: %v", len(wins), n, wins)
	}
}

// Property: on any random connected topology with an arbiter wired to
// every elector, the election eventually resolves — at least one node
// wins and the arbiter acknowledges it.
func TestQuickElectionAlwaysResolves(t *testing.T) {
	f := func(seed int64, sz uint8, lossPct uint8) bool {
		n := int(sz%8) + 2
		loss := float64(lossPct%60) / 100.0
		k := sim.NewKernel(seed)
		c := NewCluster(k, n+1, 1e-4, 1e-6, loss, rng.New(seed, rng.StreamElection))
		c.ConnectAll()
		es := make([]*Elector, n)
		for i := 0; i < n; i++ {
			es[i] = NewElector(k, packet.NodeID(i), c, Uniform{Max: 0.01})
			c.AttachElector(es[i])
		}
		arb := NewArbiter(k, packet.NodeID(n), c, 0.05)
		c.AttachArbiter(arb)
		arb.Trigger()
		k.SetHorizon(600)
		k.Run()
		if arb.Leader() == packet.None {
			return false
		}
		// The acknowledged leader must actually believe it won its round.
		for _, e := range es {
			if e.ID() == arb.Leader() {
				return e.Current().Won
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// drawRecorder is a Uniform policy that keeps the last backoff drawn.
type drawRecorder struct {
	Uniform
	got sim.Time
}

func (p *drawRecorder) Backoff(ctx Context) (sim.Time, bool) {
	d, ok := p.Uniform.Backoff(ctx)
	p.got = d
	return d, ok
}

// A round started by the arbiter's SYNC has no stream in its context:
// the elector draws from the stream of the cluster it is attached to,
// the run's one stream, rather than from anything the kernel owns. The
// drawn backoff is the first draw of a copy of that stream, and the
// draw advances the cluster's own stream.
func TestSyncRoundDrawsFromMediumStream(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCluster(k, 2, 1e-3, 1e-6, 0, rng.New(21, rng.StreamElection))
	c.ConnectAll()
	policy := &drawRecorder{Uniform: Uniform{Max: 1}}
	e := NewElector(k, 0, c, policy)
	c.AttachElector(e)
	arb := NewArbiter(k, 1, c, 5)
	c.AttachArbiter(arb)
	arb.Trigger()
	k.Run()
	if e.Count(Syncs) != 1 || arb.Leader() != 0 {
		t.Fatalf("syncs %d, leader %v: want one SYNC-started round won by node 0", e.Count(Syncs), arb.Leader())
	}
	cp := rng.New(21, rng.StreamElection)
	if want := sim.Time(cp.Float64()); policy.got != want {
		t.Fatalf("backoff %v, want the medium stream's first draw %v", policy.got, want)
	}
	if got, want := c.rng.Float64(), cp.Float64(); got != want {
		t.Fatalf("medium stream's next draw %v, want its second draw %v", got, want)
	}
}
