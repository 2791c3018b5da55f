package core

import (
	"math/rand"

	"routeless/internal/metrics"
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// Cluster is an abstract broadcast neighborhood implementing Medium:
// a directed reachability graph with per-message loss, a fixed
// transmission latency, and a collision window — two messages arriving
// at the same receiver within the window destroy each other, which is
// exactly the failure mode §2 warns about ("multiple nodes may choose
// almost identical backoff delays, leading to a collision").
//
// Cluster exists so the election engine can be studied and property-
// tested in isolation; the full PHY/MAC stack provides the production
// medium through internal/flood and internal/routing.
type Cluster struct {
	kernel *sim.Kernel
	adj    [][]bool
	delay  sim.Time
	window sim.Time
	loss   float64
	rng    *rand.Rand

	// Indexed by node id, like adj; nil where none is attached.
	electors []*Elector
	arbiters []*Arbiter
	// inflight is each receiver's deliveries in flight, oldest first,
	// and deliverTo its delivery callback, bound once per receiver.
	inflight  []inbox
	deliverTo []func()

	stats [numClusterSeries]metrics.Counter32
}

// ClusterSeries indexes one of the medium's counters.
type ClusterSeries uint8

// The medium's counters.
const (
	Broadcasts ClusterSeries = iota
	Delivered
	Lost     // random loss
	Collided // destroyed by the collision window
	numClusterSeries
)

type delivery struct {
	at       sim.Time
	from     packet.NodeID
	msg      Message
	collided bool
}

// inbox is a FIFO of deliveries: q[head:] are in flight.
type inbox struct {
	q    []delivery
	head int
}

// NewCluster builds a medium over n isolated nodes. delay is the
// message latency, window the collision window (two arrivals at one
// receiver closer than window destroy each other), loss the independent
// per-link drop probability. r is the medium's stream: it draws the
// losses and every backoff an attached elector's context leaves to it.
func NewCluster(k *sim.Kernel, n int, delay, window sim.Time, loss float64, r *rand.Rand) *Cluster {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	c := &Cluster{
		kernel:    k,
		adj:       adj,
		delay:     delay,
		window:    window,
		loss:      loss,
		rng:       r,
		electors:  make([]*Elector, n),
		arbiters:  make([]*Arbiter, n),
		inflight:  make([]inbox, n),
		deliverTo: make([]func(), n),
	}
	for i := range c.deliverTo {
		to := packet.NodeID(i)
		c.deliverTo[i] = func() { c.deliver(to) }
	}
	return c
}

// Connect adds a bidirectional link between a and b.
func (c *Cluster) Connect(a, b int) {
	c.adj[a][b] = true
	c.adj[b][a] = true
}

// ConnectOneWay adds a directed link a→b (the unidirectional-link case
// §4 mentions).
func (c *Cluster) ConnectOneWay(a, b int) { c.adj[a][b] = true }

// ConnectAll makes the cluster a clique — every node hears every other,
// the paper's canonical "spatially close neighborhood".
func (c *Cluster) ConnectAll() {
	for i := range c.adj {
		for j := range c.adj {
			if i != j {
				c.adj[i][j] = true
			}
		}
	}
}

// AttachElector registers an elector to receive deliveries at its id
// and hands it the medium's stream.
func (c *Cluster) AttachElector(e *Elector) {
	e.stream = c.rng
	c.electors[e.ID()] = e
}

// AttachArbiter registers an arbiter to receive deliveries at its id.
func (c *Cluster) AttachArbiter(a *Arbiter) { c.arbiters[a.ID()] = a }

// Count returns the current value of one of the medium's counters.
func (c *Cluster) Count(s ClusterSeries) uint64 { return c.stats[s].Value() }

// Broadcast implements Medium.
func (c *Cluster) Broadcast(from packet.NodeID, msg Message) {
	c.stats[Broadcasts].Inc()
	at := c.kernel.Now() + c.delay
	for to, linked := range c.adj[from] {
		if !linked {
			continue
		}
		if c.loss > 0 && c.rng.Float64() < c.loss {
			c.stats[Lost].Inc()
			continue
		}
		d := delivery{at: at, from: from, msg: msg}
		// Any in-flight delivery to the same receiver within the
		// collision window destroys both. Every message takes the same
		// latency, so one sent earlier arrives no later than d.
		in := &c.inflight[to]
		for i := in.head; i < len(in.q); i++ {
			if other := &in.q[i]; d.at-other.at < c.window {
				other.collided, d.collided = true, true
			}
		}
		in.q = append(in.q, d)
		c.kernel.At(at, c.deliverTo[to])
	}
}

// deliver hands receiver to the oldest of its deliveries in flight.
// Every message takes the same latency and events fire in (time,
// sequence) order, so that delivery is the one whose event fires now.
func (c *Cluster) deliver(to packet.NodeID) {
	in := &c.inflight[to]
	d := in.q[in.head]
	in.head++
	if in.head == len(in.q) {
		in.q, in.head = in.q[:0], 0
	}
	if d.collided {
		c.stats[Collided].Inc()
		return
	}
	c.stats[Delivered].Inc()
	if e := c.electors[to]; e != nil {
		e.Handle(d.from, d.msg)
	}
	if a := c.arbiters[to]; a != nil {
		a.Handle(d.from, d.msg)
	}
}

// TriggerAll delivers a synchronization observation directly to every
// attached elector with the supplied per-node contexts — modeling an
// implicit synchronization point such as a commonly observed event
// rather than an arbiter's SYNC packet. Contexts are looked up by node
// id; electors without a context entry observe a zero Context. Electors
// observe, and draw from the medium's stream, in id order.
func (c *Cluster) TriggerAll(round uint32, ctxs map[packet.NodeID]Context) {
	for id, e := range c.electors {
		if e != nil {
			e.ObserveSync(round, ctxs[packet.NodeID(id)])
		}
	}
}
