package mac

import (
	"routeless/internal/digest"
	"routeless/internal/packet"
)

// digestFrame folds one queued frame reference into h by UID. A frame
// sitting in the MAC has already been assigned its UID on a previous
// transmit attempt, or carries UID zero if it has never been on the air;
// both values are deterministic per run.
func digestFrame(h *digest.Hash, p *packet.Packet) {
	if p == nil {
		h.Bool(false)
		return
	}
	h.Bool(true)
	h.Uint64(p.UID)
	h.Int64(int64(p.From))
	h.Int64(int64(p.To))
	h.Byte(byte(p.Kind))
	h.Uint64(uint64(p.Seq))
}

// DigestState folds the MAC's contention machine into h: the CSMA/CA
// state, backoff and retry counters, the frame in service, the priority
// queue contents (heap storage order — deterministic per run), the ARQ
// reference, and the duplicate-delivery FIFO. The rxSeen map mirrors
// rxSeenFIFO exactly, so only the slice is hashed.
func (m *MAC) DigestState(h *digest.Hash) {
	h.Byte(byte(m.state))
	h.Int(int(m.slotsLeft))
	h.Int(int(m.cw))
	h.Int(int(m.retries))
	h.Uint64(m.ackRef)
	digestFrame(h, m.pendingTx)
	if m.current.pkt != nil {
		h.Bool(true)
		digestFrame(h, m.current.pkt)
		h.Float64(m.current.priority)
		h.Uint64(m.current.seq)
	} else {
		h.Bool(false)
	}
	h.Uint64(m.queue.seq)
	h.Int(len(m.queue.items))
	for _, e := range m.queue.items {
		digestFrame(h, e.pkt)
		h.Float64(e.priority)
		h.Uint64(e.seq)
	}
	h.Int(len(m.rxSeenFIFO))
	for _, uid := range m.rxSeenFIFO {
		h.Uint64(uid)
	}
}
