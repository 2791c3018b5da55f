package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"routeless/internal/core"
	"routeless/internal/geo"
	"routeless/internal/mac"
	"routeless/internal/packet"
	"routeless/internal/phy"
	"routeless/internal/propagation"
	"routeless/internal/sim"
	"routeless/internal/sweep"
)

// The ladder times exported calls of single layers in loops, from
// outside the program. Its inputs are fixed, not drawn from -seed: a
// rung answers "what does this call cost", and README.md says which
// end-to-end metric on which workload each rung should move.

// ladderBatches is how many timed batches a rung's median is taken over.
const ladderBatches = 5

// sink keeps results of pure calls alive.
var sink float64

// nsPerOp runs fn(n) ladderBatches times and returns the median cost of
// one of the n operations in nanoseconds.
func nsPerOp(n int, fn func(n int)) float64 {
	xs := make([]float64, ladderBatches)
	for i := range xs {
		begin := time.Now()
		fn(n)
		xs[i] = float64(time.Since(begin).Nanoseconds()) / float64(n)
	}
	return median(xs)
}

// allocsPerOp returns the mallocs one of fn's n operations costs.
func allocsPerOp(n int, fn func(n int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn(n)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func noop() {}

// heapAt returns a kernel holding depth pending events and a push-pop
// loop that keeps it there: each operation schedules one event a
// random delay ahead and fires the earliest.
func heapAt(depth int) (*sim.Kernel, func(n int)) {
	r := rand.New(rand.NewSource(1))
	delays := make([]sim.Time, 1024)
	for i := range delays {
		delays[i] = sim.Time(r.Float64())
	}
	k := sim.NewKernel(1)
	for i := 0; i < depth; i++ {
		k.Schedule(delays[i%len(delays)], noop)
	}
	return k, func(n int) {
		for i := 0; i < n; i++ {
			k.Schedule(delays[i%len(delays)], noop)
			k.Step()
		}
	}
}

// figure1Points draws n uniform points at the paper's Figure-1 density
// (400 nodes on 2 km × 2 km) with the channel's own index geometry.
func figure1Points(n int) (rect geo.Rect, pts []geo.Point, cutoff float64) {
	side := 2000 * math.Sqrt(float64(n)/400)
	rect = geo.NewRect(side, side)
	pts = geo.UniformPoints(rand.New(rand.NewSource(2)), rect, n)
	model := propagation.NewFreeSpace()
	return rect, pts, phy.CutoffFor(model, phy.DefaultParams(model, 250), 0, rect)
}

type nullListener struct{}

func (nullListener) OnReceive(*packet.Packet, float64) {}
func (nullListener) OnMediumBusy()                     {}
func (nullListener) OnMediumIdle()                     {}
func (nullListener) OnTxDone()                         {}

// sentHandler counts OnSent so the MAC rung knows a frame left the air.
type sentHandler struct{ sent int }

func (*sentHandler) OnDeliver(*packet.Packet, float64) {}
func (h *sentHandler) OnSent(*packet.Packet)           { h.sent++ }
func (*sentHandler) OnUnicastFailed(*packet.Packet)    {}

// ladder measures every workload-independent rung into v and returns
// what went wrong, if anything did.
func ladder(v values) (problems []string) {
	// sim: the 4-ary event heap at two depths, and Timer re-arming.
	_, loop := heapAt(4096)
	loop(1 << 16) // grow the event pool before timing
	v.set("sim.heap_push_pop_ns", nsPerOp(1<<18, loop))
	v.set("sim.heap_allocs_per_op", allocsPerOp(1<<18, loop))
	_, deep := heapAt(262144)
	v.set("sim.heap_push_pop_deep_ns", nsPerOp(1<<18, deep))
	k, _ := heapAt(4096)
	timer := sim.NewTimer(k, noop)
	timer.Reset(1)
	v.set("sim.timer_reset_ns", nsPerOp(1<<18, func(n int) {
		for i := 0; i < n; i++ {
			timer.Reset(sim.Time(1+i%7) / 8)
		}
	}))

	// geo: the channel's hierarchical grid at 20 000 nodes.
	rect, pts, cutoff := figure1Points(20000)
	var grid *geo.HierGrid
	v.set("geo.build_ns_per_node", nsPerOp(len(pts), func(int) {
		grid = geo.NewHierGrid(rect, cutoff/2, pts)
	}))
	var ids []int
	found := 0
	v.set("geo.within_radius_ns", nsPerOp(1<<14, func(n int) {
		found = 0
		for i := 0; i < n; i++ {
			ids = grid.WithinRadius(ids[:0], pts[i%len(pts)], cutoff, i%len(pts))
			found += len(ids)
		}
	}))
	v.set("geo.within_radius_ids", float64(found)/(1<<14))
	v.set("geo.move_ns", nsPerOp(1<<16, func(n int) {
		for i := 0; i < n; i++ {
			id := i % len(pts)
			grid.MoveTo(id, rect.Clamp(pts[id].Add(float64(i%64)-32, float64(i%32)-16)))
		}
	}))

	// propagation: the two calls made per delivery.
	model := propagation.NewFreeSpace()
	v.set("propagation.rx_power_ns", nsPerOp(1<<20, func(n int) {
		for i := 0; i < n; i++ {
			sink += model.ReceivedPower(24.5, float64(1+i%500))
		}
	}))
	fr := rand.New(rand.NewSource(3))
	v.set("propagation.fade_ns", nsPerOp(1<<20, func(n int) {
		for i := 0; i < n; i++ {
			sink += propagation.Rayleigh{}.Fade(fr, -70)
		}
	}))

	// phy: channel fan-out per receiver on the flood_dense geometry,
	// with a warm link cache and with the cache invalidated before
	// every transmission.
	rect, pts, _ = figure1Points(400)
	pk := sim.NewKernel(1)
	ch := phy.NewChannel(pk, rect, pts, phy.DefaultParams(model, 250), phy.ChannelConfig{Model: model})
	for i := range pts {
		ch.Radio(i).SetListener(nullListener{})
	}
	frame := &packet.Packet{Kind: packet.KindData, To: packet.Broadcast, Size: 64}
	transmit := func(move bool) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				id := i % len(pts)
				if move {
					ch.MoveTo(id, pts[id])
				}
				ch.Radio(id).Transmit(frame)
				pk.Run()
			}
		}
	}
	transmit(false)(len(pts)) // build every link cache
	before := ch.Stats().Deliveries
	hit := nsPerOp(1<<12, transmit(false))
	perTx := float64(ch.Stats().Deliveries-before) / (ladderBatches << 12)
	v.set("phy.fanout_hit_ns_per_rx", hit/perTx)
	v.set("phy.fanout_miss_ns_per_rx", nsPerOp(1<<12, transmit(true))/perTx)
	v.set("phy.fanout_allocs_per_tx", allocsPerOp(1<<12, transmit(false)))

	// mac: one broadcast frame from Enqueue to the handler's OnSent.
	mk := sim.NewKernel(1)
	pair := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}
	mch := phy.NewChannel(mk, geo.NewRect(1000, 1000), pair, phy.DefaultParams(model, 250), phy.ChannelConfig{Model: model})
	mcfg := mac.DefaultConfig()
	handler := &sentHandler{}
	sender := mac.New(mk, mch.Radio(0), &mcfg, rand.New(rand.NewSource(4)))
	sender.SetHandler(handler)
	mac.New(mk, mch.Radio(1), &mcfg, rand.New(rand.NewSource(5))).SetHandler(&sentHandler{})
	v.set("mac.enqueue_to_sent_ns", nsPerOp(1<<14, func(n int) {
		for i := 0; i < n; i++ {
			sender.Enqueue(&packet.Packet{Kind: packet.KindData, To: packet.Broadcast, Seq: uint32(i), Size: packet.SizeData}, 0)
			mk.Run()
		}
	}))
	if handler.sent != ladderBatches<<14 {
		problems = append(problems, fmt.Sprintf("mac rung: %d of %d frames reported sent", handler.sent, ladderBatches<<14))
	}

	// core: one sync → announce → ack round of ten electors and an
	// arbiter on the abstract medium, as ABL3 sets it up.
	const lambda = 10e-3
	ck := sim.NewKernel(1)
	cl := core.NewCluster(ck, 11, lambda/4, lambda/20, 0, rand.New(rand.NewSource(6)))
	cl.ConnectAll()
	for i := 0; i < 10; i++ {
		cl.AttachElector(core.NewElector(ck, packet.NodeID(i), cl, core.Uniform{Max: lambda}))
	}
	arb := core.NewArbiter(ck, 10, cl, lambda*4)
	arb.MaxRetries = 20
	cl.AttachArbiter(arb)
	v.set("core.election_round_ns", nsPerOp(1<<12, func(n int) {
		for i := 0; i < n; i++ {
			arb.Trigger()
			ck.Run()
		}
	}))

	// sweep: a no-op job through the pool the run server schedules on.
	pool := sweep.NewPool(1)
	done := make(chan struct{})
	v.set("sweep.pool_submit_us", nsPerOp(1<<14, func(n int) {
		for i := 0; i < n; i++ {
			pool.Submit(func(*sweep.Context) { done <- struct{}{} })
			<-done
		}
	})/1e3)
	pool.Close()
	return problems
}
