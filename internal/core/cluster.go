package core

import (
	"math/rand"
	"slices"

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

	electors map[packet.NodeID]*Elector
	arbiters map[packet.NodeID]*Arbiter

	inflight map[packet.NodeID][]*delivery

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

// NewCluster builds a medium over n isolated nodes. delay is the
// message latency, window the collision window (two arrivals at one
// receiver closer than window destroy each other), loss the independent
// per-link drop probability.
func NewCluster(k *sim.Kernel, n int, delay, window sim.Time, loss float64, r *rand.Rand) *Cluster {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	return &Cluster{
		kernel:   k,
		adj:      adj,
		delay:    delay,
		window:   window,
		loss:     loss,
		rng:      r,
		electors: make(map[packet.NodeID]*Elector),
		arbiters: make(map[packet.NodeID]*Arbiter),
		inflight: make(map[packet.NodeID][]*delivery),
	}
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

// AttachElector registers an elector to receive deliveries at its id.
func (c *Cluster) AttachElector(e *Elector) { c.electors[e.ID()] = e }

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
		rcv := packet.NodeID(to)
		d := &delivery{at: at, from: from, msg: msg}
		// Any in-flight delivery to the same receiver within the
		// collision window destroys both.
		for _, other := range c.inflight[rcv] {
			if !other.collided || !d.collided {
				dt := other.at - d.at
				if dt < 0 {
					dt = -dt
				}
				if dt < c.window {
					other.collided = true
					d.collided = true
				}
			}
		}
		c.inflight[rcv] = append(c.inflight[rcv], d)
		c.kernel.At(at, func() { c.deliver(rcv, d) })
	}
}

func (c *Cluster) deliver(to packet.NodeID, d *delivery) {
	// Drop d from the in-flight list.
	list := c.inflight[to]
	for i, x := range list {
		if x == d {
			list[i] = list[len(list)-1]
			c.inflight[to] = list[:len(list)-1]
			break
		}
	}
	if d.collided {
		c.stats[Collided].Inc()
		return
	}
	c.stats[Delivered].Inc()
	if e, ok := c.electors[to]; ok {
		e.Handle(d.from, d.msg)
	}
	if a, ok := c.arbiters[to]; ok {
		a.Handle(d.from, d.msg)
	}
}

// TriggerAll delivers a synchronization observation directly to every
// attached elector with the supplied per-node contexts — modeling an
// implicit synchronization point such as a commonly observed event
// rather than an arbiter's SYNC packet. Contexts are looked up by node
// id; electors without a context entry observe a zero Context.
func (c *Cluster) TriggerAll(round uint32, ctxs map[packet.NodeID]Context) {
	ids := make([]int, 0, len(c.electors))
	for id := range c.electors {
		ids = append(ids, int(id))
	}
	slices.Sort(ids) // deterministic draw order from the shared stream
	for _, id := range ids {
		e := c.electors[packet.NodeID(id)]
		ctx := ctxs[packet.NodeID(id)]
		ctx.Rand = c.rng
		e.ObserveSync(round, ctx)
	}
}
