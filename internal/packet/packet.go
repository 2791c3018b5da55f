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
//
// The keys live in one table of slots, each holding a ring entry and
// an index entry. The ring keeps the keys in insertion order, oldest at
// head; the index is open-addressed and linear-probed over the same
// slots, each entry a ring position plus one (zero is empty). The table
// starts at dedupFirstSlots and doubles whenever the ring fills, until
// the ring holds capacity keys; the index is kept at most 3/4 full.
// Eviction deletes the oldest key's index entry by backward shift, so
// there are no tombstones, and a full cache records a key without
// allocating.
type DedupCache struct {
	slots []dedupSlot
	head  int32 // ring position of the oldest key
	n     int32 // keys recorded
	cap   int
}

// dedupSlot is one slot of a DedupCache's table: a ring entry and an
// index entry, which are unrelated to each other.
type dedupSlot struct {
	key FlowKey
	pos int32 // ring position + 1 of the key this index entry names; 0 is empty
}

// dedupFirstSlots is the table size a cache's first key allocates (64 B,
// three keys): kept small, since on an arena one flood crosses every
// node holds a single key.
const dedupFirstSlots = 4

// Init empties c and sets it to hold at most capacity keys. Owners hold
// the cache by value. The table is allocated on first use: a node no
// flood ever reaches keeps an empty cache, which at mega scale keeps
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
	if c.find(k) >= 0 {
		return true
	}
	if ring := c.ringLen(); int(c.n) == ring {
		if ring < c.cap {
			c.grow()
		} else {
			// Evict the oldest key: empty its index entry, then move
			// into the hole each later entry of its probe run whose
			// home slot is not cyclically past the hole, so no
			// tombstone is left.
			mask := len(c.slots) - 1
			i := c.find(c.slots[c.head].key)
			for j := (i + 1) & mask; c.slots[j].pos != 0; j = (j + 1) & mask {
				p := c.slots[j].pos
				if (j-c.home(c.slots[p-1].key))&mask >= (j-i)&mask {
					c.slots[i].pos = p
					i = j
				}
			}
			c.slots[i].pos = 0
			c.head = int32((int(c.head) + 1) % ring)
			c.n--
		}
	}
	pos := (int(c.head) + int(c.n)) % c.ringLen()
	c.slots[pos].key = k
	c.index(k, pos)
	c.n++
	return false
}

// Contains reports whether k is recorded without recording it.
func (c *DedupCache) Contains(k FlowKey) bool { return c.find(k) >= 0 }

// Len returns the number of recorded keys.
func (c *DedupCache) Len() int { return int(c.n) }

// ringLen is how many keys the table holds before it grows or evicts.
func (c *DedupCache) ringLen() int { return min(c.cap, len(c.slots)*3/4) }

// home is k's first index slot: a 64-bit mix of its fields, masked to
// the table. len(c.slots) is a power of two.
func (c *DedupCache) home(k FlowKey) int {
	x := uint64(uint32(k.Origin))<<32 | uint64(k.Seq)
	x ^= uint64(k.Kind) << 24
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x) & (len(c.slots) - 1)
}

// find returns the index slot naming k, or -1.
func (c *DedupCache) find(k FlowKey) int {
	if c.n == 0 {
		return -1
	}
	mask := len(c.slots) - 1
	for i := c.home(k); ; i = (i + 1) & mask {
		p := c.slots[i].pos
		if p == 0 {
			return -1
		}
		if c.slots[p-1].key == k {
			return i
		}
	}
}

// index names ring position pos, which holds k, in k's probe run.
func (c *DedupCache) index(k FlowKey, pos int) {
	mask := len(c.slots) - 1
	i := c.home(k)
	for c.slots[i].pos != 0 {
		i = (i + 1) & mask
	}
	c.slots[i].pos = int32(pos + 1)
}

// grow doubles the table (or makes the first one) and moves the ring
// into it oldest first, re-indexing every key.
func (c *DedupCache) grow() {
	old, ring := c.slots, c.ringLen()
	c.slots = make([]dedupSlot, max(dedupFirstSlots, 2*len(old)))
	for i := range int(c.n) {
		k := old[(int(c.head)+i)%ring].key
		c.slots[i].key = k
		c.index(k, i)
	}
	c.head = 0
}
