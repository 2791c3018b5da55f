package scenario

import (
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/traffic"
)

// RunMetrics is one simulation run's outcome in the paper's units.
type RunMetrics struct {
	Delay      float64 // mean end-to-end delay, seconds
	Hops       float64 // mean hop count of delivered packets
	Delivery   float64 // delivered / sent
	MACPackets float64 // total MAC-layer transmissions
	EnergyJ    float64 // total radio energy, joules
}

// appSample is one application delivery as buffered by the tap: its
// receive time plus the delay/hops the meter scores.
type appSample struct {
	at    sim.Time
	delay float64
	hops  int
}

// appTap meters application traffic across all nodes without touching
// the shared Meter from inside event handlers. Deliveries append to a
// per-tile buffer (handlers on one tile only write that tile's buffer,
// so the tap is safe under tiled PDES); fold replays them into the
// Meter after the run in global time order — on a sequential network
// that is exactly the append order, so the Welford fold sequence, and
// hence every journaled app.* value, is the same as metering inline.
// Sends are counted from each CBR's own counter instead of a
// shared-callback increment.
type appTap struct {
	m      stats.Meter
	bufs   [][]appSample
	folded bool
}

// newAppTap attaches the tap to every node and exposes the (folded)
// meter on the network registry as the app.* series. Final snapshots
// are taken after Finish, which folds first, so journaled values see
// the complete run.
func newAppTap(nw *node.Network) *appTap {
	t := &appTap{bufs: make([][]appSample, nw.NumTiles())}
	for _, n := range nw.Nodes {
		n := n
		n.OnAppReceive = func(p *packet.Packet) {
			now := n.Kernel.Now()
			t.bufs[n.Tile] = append(t.bufs[n.Tile], appSample{
				at:    now,
				delay: float64(now - p.CreatedAt),
				hops:  p.HopCount,
			})
		}
	}
	m := &t.m
	nw.Metrics.Func("app.sent", func() uint64 { return m.Sent })
	nw.Metrics.Func("app.received", func() uint64 { return m.Received })
	nw.Metrics.GaugeFunc("app.delay_mean_s", func() float64 { return m.Delay.Mean() })
	nw.Metrics.GaugeFunc("app.hops_mean", func() float64 { return m.Hops.Mean() })
	return t
}

// fold replays the buffered deliveries into the meter in (time, tile)
// order and adds the flows' generation counts to Sent. Idempotent.
func (t *appTap) fold(cbrs []*traffic.CBR) {
	if t.folded {
		return
	}
	t.folded = true
	for _, c := range cbrs {
		t.m.Sent += c.Sent()
	}
	if len(t.bufs) == 1 {
		for _, s := range t.bufs[0] {
			t.m.PacketReceived(s.delay, s.hops)
		}
		return
	}
	// k-way merge; strict < keeps the lowest tile on equal timestamps.
	idx := make([]int, len(t.bufs))
	for {
		best := -1
		var bestAt sim.Time
		for ti, b := range t.bufs {
			if idx[ti] >= len(b) {
				continue
			}
			if best < 0 || b[idx[ti]].at < bestAt {
				best, bestAt = ti, b[idx[ti]].at
			}
		}
		if best < 0 {
			return
		}
		s := t.bufs[best][idx[best]]
		idx[best]++
		t.m.PacketReceived(s.delay, s.hops)
	}
}
