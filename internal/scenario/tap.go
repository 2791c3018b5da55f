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
// delay and hops the tap scores.
type appSample struct {
	delay float64
	hops  int
}

// appTap is the run's one delivery ledger: the paper's delivery ratio
// ("packets received by all the destinations divided by packets sent
// by all the sources"), end-to-end delay and hop count, across all
// nodes. Deliveries append to a buffer from inside event handlers;
// fold replays them into the accumulators after the run in append
// order — the run's event order — so the Welford fold sequence, and
// hence every journaled app.* value, is the same as scoring inline,
// while epoch records taken mid-run see no partial app.* figures.
// Sends are counted from each CBR's own counter instead of a
// shared-callback increment.
type appTap struct {
	sent, received uint64
	delay, hops    stats.Welford
	buf            []appSample
	folded         bool
}

// newAppTap attaches the tap to every node and exposes its (folded)
// figures on the network registry as the app.* series. Final
// snapshots are taken after Finish, which folds first, so journaled
// values see the complete run.
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
	nw.Metrics.Func("app.sent", func() uint64 { return t.sent })
	nw.Metrics.Func("app.received", func() uint64 { return t.received })
	nw.Metrics.GaugeFunc("app.delay_mean_s", t.delay.Mean)
	nw.Metrics.GaugeFunc("app.hops_mean", t.hops.Mean)
	return t
}

// fold replays the buffered deliveries into the accumulators and adds
// the flows' generation counts to sent. Idempotent.
func (t *appTap) fold(cbrs []*traffic.CBR) {
	if t.folded {
		return
	}
	t.folded = true
	for _, c := range cbrs {
		t.sent += c.Sent()
	}
	t.received = uint64(len(t.buf))
	for _, s := range t.buf {
		t.delay.Add(s.delay)
		t.hops.Add(float64(s.hops))
	}
}

// delivery returns received/sent, or 0 when nothing was sent.
func (t *appTap) delivery() float64 {
	if t.sent == 0 {
		return 0
	}
	return float64(t.received) / float64(t.sent)
}
