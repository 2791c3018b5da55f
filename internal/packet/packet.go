// Package packet defines the in-simulation packet model shared by the
// MAC layer and every network protocol in the repository. Packets are
// plain structs, never serialized, and airtime is derived from the
// declared size. A transmission freezes the packet as it is when
// phy.Radio.Transmit is called: the sender may mutate or reuse its own
// afterwards, each receiver that decodes the frame is lent a fresh copy
// for the length of one call (read or mutate it, Clone to keep), and the
// frame on the air never leaves phy.
package packet

import (
	"fmt"

	"routeless/internal/sim"
)

// NodeID identifies a node. IDs are dense small integers assigned by
// the network builder.
type NodeID int32

// Broadcast is the MAC destination meaning "all nodes in range".
const Broadcast NodeID = -1

// None marks an unset node field.
const None NodeID = -2

// String implements fmt.Stringer.
func (id NodeID) String() string {
	switch id {
	case Broadcast:
		return "*"
	case None:
		return "-"
	default:
		return fmt.Sprintf("n%d", int32(id))
	}
}

// Kind classifies packets for protocol dispatch and statistics.
type Kind uint8

// Packet kinds used across the protocol suite.
const (
	KindData      Kind = iota // application payload
	KindFlood                 // flooded application payload (§3)
	KindDiscovery             // Routeless path discovery (§4.1)
	KindReply                 // Routeless path reply (§4.1)
	KindAck                   // Routeless/election acknowledgement (§2, §4.1)
	KindAnnounce              // election announcement (§2)
	KindSync                  // election synchronization trigger (§2)
	KindRREQ                  // AODV route request
	KindRREP                  // AODV route reply
	KindRERR                  // AODV route error
	KindMACAck                // link-layer acknowledgement for unicast
	KindJam                   // fault-plane jammer burst; interferes, never decodes
	numKinds
)

var kindNames = [numKinds]string{
	"DATA", "FLOOD", "DISC", "REPLY", "ACK", "ANN", "SYNC",
	"RREQ", "RREP", "RERR", "MACK", "JAM",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("KIND(%d)", uint8(k))
}

// Packet carries MAC- and network-layer headers plus an opaque payload.
// Every decoding receiver is lent its own copy (see the package
// comment), so mutating a received packet never affects other receivers
// or the sender; keeping one past the receive call takes a Clone.
type Packet struct {
	// MAC layer addressing.
	From NodeID // transmitter of this hop
	To   NodeID // Broadcast, or the unicast next hop

	Kind Kind

	// End-to-end addressing.
	Origin NodeID // node that created the packet
	Target NodeID // final destination (None for pure broadcasts)

	// Seq distinguishes packets from the same origin; (Origin, Kind
	// class, Seq) identifies a logical packet network-wide.
	Seq uint32

	// HopCount is the paper's "actual hop count field": hops traveled
	// from Origin to the node that transmitted this copy, inclusive of
	// that transmission.
	HopCount int

	// ExpectedHops is the paper's "expected hop count field" carried by
	// path reply and data packets: the transmitter's estimate of the
	// remaining distance to Target.
	ExpectedHops int

	// TTL bounds forwarding; decremented per hop, dropped at zero.
	TTL int

	// Size is the on-air size in bytes (headers included); it drives
	// transmission duration.
	Size int

	// CreatedAt is when Origin generated the logical packet; end-to-end
	// delay is measured against it.
	CreatedAt sim.Time

	// UID identifies this physical frame for tracing and link-layer
	// duplicate suppression; the channel assigns it on the first
	// transmission (zero means unassigned) and ARQ retransmissions of the
	// same packet keep it.
	UID uint64

	// Payload is protocol- or application-specific extra state.
	Payload any
}

// Clone returns a copy of p suitable for retransmission or forwarding.
// Payload is shared (payloads are treated as immutable).
func (p *Packet) Clone() *Packet {
	q := *p
	return &q
}

// FlowKey identifies a logical end-to-end packet, used for duplicate
// suppression and election state.
type FlowKey struct {
	Origin NodeID
	Kind   Kind
	Seq    uint32
}

// Key returns the logical identity of p.
func (p *Packet) Key() FlowKey { return FlowKey{p.Origin, p.Kind, p.Seq} }

// String implements fmt.Stringer for debugging and traces.
func (p *Packet) String() string {
	return fmt.Sprintf("%s %s->%s o=%s t=%s seq=%d h=%d eh=%d",
		p.Kind, p.From, p.To, p.Origin, p.Target, p.Seq, p.HopCount, p.ExpectedHops)
}

// Default on-air sizes in bytes, shared by protocols so comparisons are
// apples-to-apples. Values follow typical MANET simulation setups.
const (
	SizeData    = 512
	SizeControl = 48
	SizeAck     = 24
)

// HopLimit is the TTL every routing protocol stamps on the packets it
// originates (Routeless Routing tightens it to the path budget), and
// flooding's default.
const HopLimit = 32

// DedupCache remembers recently seen FlowKeys with bounded memory: the
// classic sequence-number list every counter-1 flooding node keeps
// (§3: "every node must also keep a list of sequence numbers of
// received packets"). Eviction is FIFO.
type DedupCache struct {
	seen  map[FlowKey]struct{}
	order []FlowKey
	cap   int
}

// Init empties c and sets it to hold at most capacity keys. Owners hold
// the cache by value. The backing map is allocated on first use: a node
// no flood ever reaches keeps an empty cache, which at mega scale keeps
// untouched arena regions cheap.
func (c *DedupCache) Init(capacity int) {
	if capacity <= 0 {
		panic("packet: dedup capacity must be positive")
	}
	*c = DedupCache{cap: capacity}
}

// Seen reports whether k was recorded and records it. The first call
// for a key returns false, later calls true (until evicted).
func (c *DedupCache) Seen(k FlowKey) bool {
	if _, ok := c.seen[k]; ok {
		return true
	}
	if c.seen == nil {
		c.seen = make(map[FlowKey]struct{})
	}
	if len(c.order) >= c.cap {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.seen, old)
	}
	c.seen[k] = struct{}{}
	c.order = append(c.order, k)
	return false
}

// Contains reports whether k is recorded without recording it.
func (c *DedupCache) Contains(k FlowKey) bool {
	_, ok := c.seen[k]
	return ok
}

// Len returns the number of recorded keys.
func (c *DedupCache) Len() int { return len(c.seen) }
