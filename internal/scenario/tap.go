package scenario

import (
	"routeless/internal/node"
	"routeless/internal/packet"
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

// appSample is one application delivery as buffered by the tap: the
// delay and hops the meter scores.
type appSample struct {
	delay float64
	hops  int
}

// appTap meters application traffic across all nodes without touching
// the shared Meter from inside event handlers. Deliveries append to a
// buffer; fold replays them into the Meter after the run in append
// order — the run's event order — so the Welford fold sequence, and
// hence every journaled app.* value, is the same as metering inline,
// while epoch records taken mid-run see no partial app.* figures.
// Sends are counted from each CBR's own counter instead of a
// shared-callback increment.
type appTap struct {
	m      stats.Meter
	buf    []appSample
	folded bool
}

// newAppTap attaches the tap to every node and exposes the (folded)
// meter on the network registry as the app.* series. Final snapshots
// are taken after Finish, which folds first, so journaled values see
// the complete run.
func newAppTap(nw *node.Network) *appTap {
	t := &appTap{}
	for _, n := range nw.Nodes {
		n := n
		n.OnAppReceive = func(p *packet.Packet) {
			t.buf = append(t.buf, appSample{
				delay: float64(n.Kernel.Now() - p.CreatedAt),
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

// fold replays the buffered deliveries into the meter and adds the
// flows' generation counts to Sent. Idempotent.
func (t *appTap) fold(cbrs []*traffic.CBR) {
	if t.folded {
		return
	}
	t.folded = true
	for _, c := range cbrs {
		t.m.Sent += c.Sent()
	}
	for _, s := range t.buf {
		t.m.PacketReceived(s.delay, s.hops)
	}
}
