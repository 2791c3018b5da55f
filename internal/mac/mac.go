// Package mac implements a simplified CSMA/CA medium-access layer over
// internal/phy: carrier sensing with DIFS and slotted random backoff,
// fire-and-forget broadcast frames, and stop-and-wait unicast with
// link-layer acknowledgements and bounded retransmission (the mechanism
// AODV relies on for link-failure detection).
//
// The outgoing queue between the network layer and the MAC is a
// priority queue keyed by the network layer's backoff delay; the paper
// depends on this queue for SSAF's delay improvement under load (§3).
package mac

import (
	"math/rand"

	"routeless/internal/metrics"
	"routeless/internal/packet"
	"routeless/internal/phy"
	"routeless/internal/sim"
)

// Config holds MAC timing and retry parameters. Defaults mirror
// 802.11-class numbers at 1 Mbps.
type Config struct {
	SlotTime   sim.Time // backoff slot length
	DIFS       sim.Time // idle time required before contending
	SIFS       sim.Time // gap before a link-layer ACK
	MinCW      int      // initial contention window (slots)
	MaxCW      int      // contention window cap after retries
	RetryLimit int      // unicast retransmissions before giving up
	AckTimeout sim.Time // wait for a link-layer ACK
	QueueCap   int      // outgoing queue capacity (frames)
}

// DefaultConfig returns 802.11-flavored parameters.
func DefaultConfig() Config {
	return Config{
		SlotTime:   20e-6,
		DIFS:       50e-6,
		SIFS:       10e-6,
		MinCW:      32,
		MaxCW:      1024,
		RetryLimit: 5,
		AckTimeout: 2e-3,
		QueueCap:   64,
	}
}

// Handler is the network layer's upward interface. Every decoded frame
// is delivered (promiscuous mode): Routeless Routing learns distances
// "by passively listening to all packets" (§4.1), so protocols filter
// on pkt.To themselves.
type Handler interface {
	// OnDeliver reports a decoded frame with its receive power. pkt is
	// the radio's lent copy, valid for the call: read or mutate it, and
	// keep pkt.Clone() if it must outlive the call.
	OnDeliver(pkt *packet.Packet, rssiDBm float64)
	// OnSent reports that a frame handed to Enqueue left the air
	// (broadcast) or was acknowledged (unicast).
	OnSent(pkt *packet.Packet)
	// OnUnicastFailed reports that a unicast frame exhausted its
	// retries — the link-break signal.
	OnUnicastFailed(pkt *packet.Packet)
}

// Series indexes one cell of a MAC's counter block.
type Series uint8

// The mac.* counters, in journal order.
const (
	Enqueued Series = iota
	DroppedFull
	// TxFrames counts every transmission attempt including retries and
	// ACKs: the paper's "Number of MAC Packets" (Figures 3 and 4).
	TxFrames
	TxAcks
	Retries
	UnicastFailed
	Delivered
	AcksReceived
	DroppedPaused
	Dequeued
	DupRx
	Completed // frames that finished successfully (sent/acked)
	numSeries
)

// table names the series; it is the only place they are spelled.
var table = metrics.Table{Counters: []string{
	Enqueued:      "mac.enqueued",
	DroppedFull:   "mac.dropped_full",
	TxFrames:      "mac.tx_frames",
	TxAcks:        "mac.tx_acks",
	Retries:       "mac.retries",
	UnicastFailed: "mac.unicast_failed",
	Delivered:     "mac.delivered",
	AcksReceived:  "mac.acks_received",
	DroppedPaused: "mac.dropped_paused",
	Dequeued:      "mac.dequeued",
	DupRx:         "mac.dup_rx",
	Completed:     "mac.completed",
}}

type macState uint8

const (
	stIdle    macState = iota // nothing to send
	stWait                    // head frame waiting for medium idle
	stDIFS                    // sensing idle for DIFS
	stBackoff                 // counting down backoff slots
	stTx                      // frame on the air
	stAck                     // unicast sent, awaiting ACK
	stPaused                  // radio off/asleep
)

// MAC is one node's medium-access instance.
type MAC struct {
	// cfg is shared by every MAC in a network (the builder passes one
	// pointer): an inline copy is 64 bytes of identical timing numbers
	// per node, real weight at mega scale. Never written after New.
	cfg     *Config
	kernel  *sim.Kernel
	radio   *phy.Radio
	rng     *rand.Rand
	handler Handler

	// queue and access are embedded by value (not pointers): two fewer
	// heap objects per node. Both capture m's address via methods, so a
	// MAC must never be copied after New.
	queue   prioQueue
	current *entry
	state   macState

	slotsLeft int
	cw        int
	retries   int
	access    sim.Timer // drives DIFS, backoff slots, and ACK timeout
	pendingTx *packet.Packet

	// ackRef is the UID of the unicast frame awaiting acknowledgement.
	ackRef uint64

	// rxSeen remembers recently delivered unicast frame UIDs so that
	// ARQ retransmissions (our ACK was lost) are re-acknowledged but
	// not delivered upward twice.
	rxSeen     map[uint64]struct{}
	rxSeenFIFO []uint64

	stats [numSeries]metrics.Counter32
}

// New wires a MAC onto a radio. It installs itself as the radio's
// listener. cfg is retained (not copied) so a network can share one
// Config across all its MACs; callers must not mutate it afterwards.
func New(k *sim.Kernel, radio *phy.Radio, cfg *Config, rng *rand.Rand) *MAC {
	m := &MAC{}
	Init(m, k, radio, cfg, rng)
	return m
}

// Init initializes m in place — the arena alternative to New for
// mega-scale populations that lay their MACs out in one contiguous
// slice. The MAC captures its own address (queue, access timer, radio
// listener), so it must never be copied after Init.
func Init(m *MAC, k *sim.Kernel, radio *phy.Radio, cfg *Config, rng *rand.Rand) {
	*m = MAC{
		cfg:    cfg,
		kernel: k,
		radio:  radio,
		rng:    rng,
		cw:     cfg.MinCW,
	}
	m.queue.init(cfg.QueueCap)
	sim.InitTimer(&m.access, k, m.onAccessTimer)
	radio.SetListener(m)
}

// SetHandler installs the network layer.
func (m *MAC) SetHandler(h Handler) { m.handler = h }

// Count returns the current value of one of the MAC's counters.
func (m *MAC) Count(s Series) uint64 { return m.stats[s].Value() }

// RegisterMetrics registers the network-wide mac.* series over a MAC
// arena: the counter blocks as one population, then the live backlog
// (the in-flight term of the mac-queue conservation law: frames waiting
// in the priority queue plus the one under contention).
func RegisterMetrics(reg *metrics.Registry, macs []MAC) {
	reg.Population(&table, len(macs), func(i int) metrics.Block {
		return metrics.Block{Table: &table, Counters: macs[i].stats[:]}
	})
	reg.Func("mac.backlog", func() uint64 {
		var n uint64
		for i := range macs {
			n += uint64(macs[i].queue.len())
			if macs[i].current != nil {
				n++
			}
		}
		return n
	})
}

// QueueLen returns the number of frames waiting behind the current one.
func (m *MAC) QueueLen() int { return m.queue.len() }

// ID returns the node id of the underlying radio.
func (m *MAC) ID() packet.NodeID { return m.radio.ID() }

// Enqueue hands a frame to the MAC with a queue priority (lower is
// served first — network layers pass their backoff delay). It reports
// false when the queue is full and the frame was dropped.
func (m *MAC) Enqueue(pkt *packet.Packet, priority float64) bool {
	m.stats[Enqueued].Inc()
	if !m.queue.push(pkt, priority) {
		m.stats[DroppedFull].Inc()
		return false
	}
	if m.state == stIdle {
		m.nextFrame()
	}
	return true
}

// Dequeue withdraws a frame that has not yet reached the air: either
// still in the priority queue, or the head frame while it is
// contending. It reports whether the frame was withdrawn; false means
// the frame is on the air (or already gone) and cannot be recalled.
//
// Network layers use this to complete a cancelled relay election: the
// paper's backoff cancellation must also cover packets waiting in the
// NET→MAC queue, otherwise a lost election still transmits.
func (m *MAC) Dequeue(pkt *packet.Packet) bool {
	if m.current != nil && m.current.pkt == pkt {
		switch m.state {
		case stWait, stDIFS, stBackoff:
			m.access.Stop()
			m.current = nil
			m.state = stIdle
			m.stats[Dequeued].Inc()
			m.nextFrame()
			return true
		}
		return false
	}
	if m.queue.remove(pkt) {
		m.stats[Dequeued].Inc()
		return true
	}
	return false
}

// Pause halts the MAC while its radio is off or asleep. Queued frames
// are kept; the frame in flight (if any) is abandoned without
// link-failure indication — exactly the silent-death behavior the
// paper's failure experiments need.
func (m *MAC) Pause() {
	m.access.Stop()
	if m.current != nil {
		// Back in the queue; it will recontend after Resume.
		if !m.queue.push(m.current.pkt, m.current.priority) {
			m.stats[DroppedPaused].Inc()
		}
		m.current = nil
	}
	m.pendingTx = nil
	m.state = stPaused
}

// Resume restarts medium access after Pause.
func (m *MAC) Resume() {
	if m.state != stPaused {
		return
	}
	m.state = stIdle
	m.retries = 0
	m.cw = m.cfg.MinCW
	m.nextFrame()
}

// Paused reports whether the MAC is halted.
func (m *MAC) Paused() bool { return m.state == stPaused }

// nextFrame promotes the head of the queue to the contention slot.
func (m *MAC) nextFrame() {
	if m.state != stIdle {
		return
	}
	m.current = m.queue.pop()
	if m.current == nil {
		return
	}
	m.retries = 0
	m.cw = m.cfg.MinCW
	m.beginContention()
}

// beginContention starts (or restarts) the DIFS + backoff dance for the
// current frame.
func (m *MAC) beginContention() {
	m.slotsLeft = m.rng.Intn(m.cw)
	m.resumeContention()
}

// resumeContention waits for an idle medium, then DIFS, then counts
// down the remaining backoff slots.
func (m *MAC) resumeContention() {
	if m.radio.CarrierBusy() {
		m.state = stWait
		m.access.Stop()
		return
	}
	m.state = stDIFS
	m.access.Reset(m.cfg.DIFS)
}

func (m *MAC) onAccessTimer() {
	switch m.state {
	case stDIFS:
		if m.radio.CarrierBusy() {
			m.state = stWait
			return
		}
		if m.slotsLeft == 0 {
			m.transmitCurrent()
			return
		}
		m.state = stBackoff
		m.access.Reset(m.cfg.SlotTime)
	case stBackoff:
		if m.radio.CarrierBusy() {
			m.state = stWait
			return
		}
		m.slotsLeft--
		if m.slotsLeft <= 0 {
			m.transmitCurrent()
			return
		}
		m.access.Reset(m.cfg.SlotTime)
	case stAck:
		m.ackTimeout()
	}
}

func (m *MAC) transmitCurrent() {
	if !m.radio.On() {
		m.Pause()
		return
	}
	m.state = stTx
	m.stats[TxFrames].Inc()
	m.pendingTx = m.current.pkt
	m.radio.Transmit(m.current.pkt)
}

// OnTxDone implements phy.Listener.
func (m *MAC) OnTxDone() {
	if m.pendingTx == nil {
		return // an ACK we fired off, or a stale completion after Pause
	}
	pkt := m.pendingTx
	m.pendingTx = nil
	if pkt.To == packet.Broadcast {
		m.finishCurrent(pkt, true)
		return
	}
	// Unicast: hold the frame and await the link-layer ACK.
	m.state = stAck
	m.ackRef = pkt.UID
	m.access.Reset(m.cfg.AckTimeout)
}

func (m *MAC) ackTimeout() {
	m.stats[Retries].Inc()
	m.retries++
	if m.retries > m.cfg.RetryLimit {
		pkt := m.current.pkt
		m.current = nil
		m.state = stIdle
		m.stats[UnicastFailed].Inc()
		if m.handler != nil {
			m.handler.OnUnicastFailed(pkt)
		}
		m.nextFrame()
		return
	}
	if m.cw*2 <= m.cfg.MaxCW {
		m.cw *= 2
	}
	m.beginContention()
}

func (m *MAC) finishCurrent(pkt *packet.Packet, ok bool) {
	m.current = nil
	m.state = stIdle
	m.stats[Completed].Inc()
	if ok && m.handler != nil {
		m.handler.OnSent(pkt)
	}
	m.nextFrame()
}

// OnReceive implements phy.Listener.
func (m *MAC) OnReceive(pkt *packet.Packet, rssiDBm float64) {
	if pkt.Kind == packet.KindMACAck {
		if m.state == stAck && pkt.To == m.radio.ID() {
			if ref, okRef := pkt.Payload.(uint64); okRef && ref == m.ackRef {
				m.stats[AcksReceived].Inc()
				m.access.Stop()
				m.finishCurrent(m.current.pkt, true)
			}
		}
		return // ACKs are MAC-internal; never delivered upward
	}
	if pkt.To == m.radio.ID() {
		m.scheduleAck(pkt)
		if m.seenUID(pkt.UID) {
			m.stats[DupRx].Inc()
			return // ARQ retransmission: acked again, delivered once
		}
	}
	m.stats[Delivered].Inc()
	if m.handler != nil {
		m.handler.OnDeliver(pkt, rssiDBm)
	}
}

// seenUID records a delivered unicast frame id, bounding memory with a
// FIFO window. The map is lazily allocated: only unicast receivers ever
// reach this path, so a broadcast-only node (any flooding run) carries
// no dedup map at all.
func (m *MAC) seenUID(uid uint64) bool {
	if _, ok := m.rxSeen[uid]; ok {
		return true
	}
	if m.rxSeen == nil {
		m.rxSeen = make(map[uint64]struct{})
	}
	const window = 256
	if len(m.rxSeenFIFO) >= window {
		old := m.rxSeenFIFO[0]
		m.rxSeenFIFO = m.rxSeenFIFO[1:]
		delete(m.rxSeen, old)
	}
	m.rxSeen[uid] = struct{}{}
	m.rxSeenFIFO = append(m.rxSeenFIFO, uid)
	return false
}

// scheduleAck fires a link-layer ACK after SIFS, bypassing the queue —
// ACKs pre-empt contention in CSMA/CA.
func (m *MAC) scheduleAck(orig *packet.Packet) {
	ack := &packet.Packet{
		Kind:    packet.KindMACAck,
		To:      orig.From,
		Origin:  orig.Origin,
		Target:  orig.Target,
		Seq:     orig.Seq,
		Size:    packet.SizeAck,
		Payload: orig.UID,
	}
	fire := func() {
		if !m.radio.On() || m.radio.State() == phy.StateTx {
			return // can't ack right now; sender will retry
		}
		m.stats[TxAcks].Inc()
		m.stats[TxFrames].Inc()
		m.radio.Transmit(ack)
	}
	m.kernel.Schedule(m.cfg.SIFS, fire)
}

// OnMediumBusy implements phy.Listener.
func (m *MAC) OnMediumBusy() {
	switch m.state {
	case stDIFS, stBackoff:
		m.access.Stop()
		m.state = stWait
	}
}

// OnMediumIdle implements phy.Listener.
func (m *MAC) OnMediumIdle() {
	if m.state == stWait {
		m.resumeContention()
	}
}
