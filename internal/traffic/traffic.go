// Package traffic generates the paper's workloads: constant-bit-rate
// (CBR) flows between randomly selected source/destination pairs
// ("50 connections were selected between randomly chosen sources and
// destinations", §3; "the constant-bit-rate model is used for the
// traffic pattern", §4.3).
package traffic

import (
	"math/rand"

	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// Pair is one source→destination connection.
type Pair struct {
	Src, Dst packet.NodeID
}

// RandomPairs draws count connections between distinct nodes of an
// n-node network. Sources and destinations may repeat across pairs, but
// never within one (src != dst), and no (src,dst) pair repeats.
func RandomPairs(r *rand.Rand, n, count int) []Pair {
	if n < 2 {
		panic("traffic: need at least two nodes")
	}
	maxPairs := n * (n - 1)
	if count > maxPairs {
		panic("traffic: more pairs requested than exist")
	}
	seen := make(map[Pair]bool, count)
	pairs := make([]Pair, 0, count)
	for len(pairs) < count {
		p := Pair{
			Src: packet.NodeID(r.Intn(n)),
			Dst: packet.NodeID(r.Intn(n)),
		}
		if p.Src == p.Dst || seen[p] {
			continue
		}
		seen[p] = true
		pairs = append(pairs, p)
	}
	return pairs
}

// CBR drives one node's protocol with fixed-interval packets toward a
// destination.
type CBR struct {
	// Interval between packets in seconds.
	Interval sim.Time
	// Size of each packet in bytes; 0 lets the protocol choose.
	Size int

	n      *node.Node
	target packet.NodeID
	ticker *sim.Ticker
	sent   uint64
}

// NewCBR builds a stopped CBR flow from n to target.
func NewCBR(n *node.Node, target packet.NodeID, interval sim.Time, size int) *CBR {
	if interval <= 0 {
		panic("traffic: CBR interval must be positive")
	}
	c := &CBR{Interval: interval, Size: size, n: n, target: target}
	c.ticker = sim.NewTicker(n.Kernel, interval, c.emit)
	return c
}

func (c *CBR) emit() {
	// A failed node generates nothing while down — its application is
	// dead along with its transceiver.
	if !c.n.Up() {
		return
	}
	c.sent++
	c.n.Net.Send(c.target, c.Size)
}

// Start begins generation after a uniformly random fraction of one
// interval, de-phasing flows across the network.
func (c *CBR) Start() {
	c.ticker.StartAfter(sim.Time(c.n.Rng.Float64()) * c.Interval)
}

// StartAt begins generation at a fixed offset (deterministic phase).
func (c *CBR) StartAt(offset sim.Time) { c.ticker.StartAfter(offset) }

// Stop halts generation.
func (c *CBR) Stop() { c.ticker.Stop() }

// Sent returns how many packets were generated.
func (c *CBR) Sent() uint64 { return c.sent }
