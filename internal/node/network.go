package node

import (
	"fmt"
	"slices"

	"routeless/internal/geo"
	"routeless/internal/mac"
	"routeless/internal/metrics"
	"routeless/internal/packet"
	"routeless/internal/phy"
	"routeless/internal/propagation"
	"routeless/internal/rng"
	"routeless/internal/sim"
)

// Config describes a network to build. Zero-value fields take the
// defaults noted on each field.
type Config struct {
	// N is the node count (ignored when Positions is set).
	N int
	// Rect is the terrain; default 1000×1000 m.
	Rect geo.Rect
	// Positions places nodes explicitly; when nil, N nodes are placed
	// uniformly at random.
	Positions []geo.Point
	// Range is the calibrated transmission range in meters; default 250
	// (the paper's §4.3 value).
	Range float64
	// Model is the propagation model; default free space (§3).
	Model propagation.Model
	// Fader adds small-scale fading; default none.
	Fader propagation.Fader
	// Seed drives every random stream in the network.
	Seed int64
	// EnsureConnected regenerates random placements (up to 100 draws)
	// until the unit-disk graph is connected, matching the paper's
	// implicit assumption that flooding reaches every node.
	EnsureConnected bool
	// Runtime, when non-nil, supplies externally owned reusable
	// allocation state (event free list, phy pools, range cache) — a
	// sweep worker's run context. Nil builds private state with
	// identical behavior; reuse changes allocation counts only, never
	// results.
	Runtime *Runtime
	// LinkCacheCap, when positive, bounds how many per-node link caches
	// the run keeps live at once (FIFO eviction, bit-identical
	// rebuilds). Zero keeps every cache — fine up to ~100k nodes;
	// mega-scale runs set a cap to keep link memory O(active).
	LinkCacheCap int
}

// fadeMarginDB widens the channel's interference cutoff to admit fading
// upswings; it has no effect without a Fader.
const fadeMarginDB = 12

// Runtime is the reusable allocation state one sweep worker owns: the
// kernel event free list, the phy transmission pool and radio arena,
// and the cross-model range cache. A Runtime warms up on a worker's first run
// and makes every later run on that worker allocate less; it must
// never be shared between networks that run concurrently.
type Runtime struct {
	Events *sim.EventPool
	Phy    *phy.Pools
	Ranges *propagation.SharedRangeCache
}

// NewRuntime returns a fresh runtime with empty pools.
func NewRuntime() *Runtime {
	return &Runtime{
		Events: sim.NewEventPool(),
		Phy:    phy.NewPools(),
		Ranges: propagation.NewSharedRangeCache(),
	}
}

// Reset shrinks the runtime's event free list to the watermark of the
// run since the previous Reset (see sim.EventPool.Reset) and zeroes the
// watermark. Its one caller is the run assembler (scenario.Assemble),
// right before each build; a second call between runs would see a zero
// watermark and empty the free list. Must not be called while any
// network built on this runtime is still running.
func (rt *Runtime) Reset() { rt.Events.Reset() }

// Network is a fully assembled simulation: kernel, channel, and nodes.
// Protocols and applications are attached after construction.
type Network struct {
	Kernel  *sim.Kernel
	Channel *phy.Channel
	Nodes   []*Node
	Rect    geo.Rect
	Seed    int64

	// RNG is the arena every stream of the network lives in. The fault
	// plane and mobility create their streams through it too, so the
	// run's entire randomness consumption is one observable value.
	RNG *rng.Tracker

	// Metrics is the network-wide registry: channel counters, then the
	// radio and MAC populations, then one population per table of the
	// protocols implementing metrics.Source at Install time.
	// Registration order is fixed, so same-seed snapshots are
	// bit-for-bit identical.
	Metrics *metrics.Registry
}

// New builds the network. It returns an error when the configuration
// cannot produce one: non-positive N without explicit positions, or no
// connected placement within the attempt budget.
// Callers whose configuration is a literal wrap the call in Must.
func New(cfg Config) (*Network, error) {
	if cfg.Rect == (geo.Rect{}) {
		cfg.Rect = geo.NewRect(1000, 1000)
	}
	if cfg.Range == 0 {
		cfg.Range = 250
	}
	if cfg.Model == nil {
		cfg.Model = propagation.NewFreeSpace()
	}
	macCfg := mac.DefaultConfig()

	streams := rng.NewTracker()

	rt := cfg.Runtime
	if rt == nil {
		rt = NewRuntime()
	}
	params := phy.DefaultParams(cfg.Model, cfg.Range)
	kernel := sim.NewKernelPooled(rng.Derive(cfg.Seed, 0xC0FFEE), rt.Events)

	positions := cfg.Positions
	if positions == nil {
		if cfg.N <= 0 {
			return nil, fmt.Errorf("node: Config.N must be positive without explicit positions, got %d", cfg.N)
		}
		placer := streams.New(cfg.Seed, rng.StreamTopology)
		positions = geo.UniformPoints(placer, cfg.Rect, cfg.N)
		if cfg.EnsureConnected {
			for try := 0; try < 100; try++ {
				// The probe shares the runtime's range cache, so the
				// connectivity bisection for a parameter set is paid once
				// per worker, not once per placement attempt.
				probe := phy.NewChannel(kernel, cfg.Rect, positions, params,
					phy.ChannelConfig{Model: cfg.Model, Ranges: rt.Ranges})
				if probe.Connected() {
					break
				}
				if try == 99 {
					return nil, fmt.Errorf("node: no connected placement found for N=%d range=%.0f in %vx%v",
						cfg.N, cfg.Range, cfg.Rect.Width(), cfg.Rect.Height())
				}
				positions = geo.UniformPoints(placer, cfg.Rect, cfg.N)
			}
		}
	}

	chCfg := phy.ChannelConfig{
		Model:        cfg.Model,
		Fader:        cfg.Fader,
		FadeMarginDB: fadeMarginDB,
		Rng:          streams.New(cfg.Seed, rng.StreamChannel),
		Pools:        rt.Phy,
		Ranges:       rt.Ranges,
		LinkCacheCap: cfg.LinkCacheCap,
	}
	ch := phy.NewChannel(kernel, cfg.Rect, positions, params, chCfg)

	nw := &Network{Kernel: kernel, Channel: ch, Rect: cfg.Rect, Seed: cfg.Seed,
		RNG: streams, Metrics: metrics.NewRegistry()}
	ch.RegisterMetrics(nw.Metrics)
	nw.Nodes = make([]*Node, len(positions))
	// One contiguous Node arena instead of N heap objects; Nodes keeps
	// its []*Node shape (protocols hold *Node), the pointers just all
	// land in one allocation.
	arena := make([]Node, len(positions))
	macArena := make([]mac.MAC, len(positions))
	for i := range positions {
		n := &arena[i]
		*n = Node{
			ID:     packet.NodeID(i),
			Pos:    positions[i],
			Kernel: kernel,
			Radio:  ch.Radio(i),
			Rng:    streams.ForNode(cfg.Seed, rng.StreamNet, i),
		}
		n.MAC = &macArena[i]
		mac.Init(n.MAC, kernel, n.Radio, &macCfg, streams.ForNode(cfg.Seed, rng.StreamMAC, i))
		n.MAC.SetHandler(macAdapter{n})
		nw.Nodes[i] = n
	}
	mac.RegisterMetrics(nw.Metrics, macArena)
	nw.registerLaws()
	return nw, nil
}

// Must unwraps a constructor's result, panicking on its error. It is
// for the error-returning constructors (New here, fault.Install,
// routeless.NewNetwork) at call sites where the configuration is a
// literal, so a failure is a programming error in experiment setup.
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err.Error())
	}
	return v
}

// Processed returns the events the run has executed.
func (nw *Network) Processed() uint64 { return nw.Kernel.Processed() }

// registerLaws declares the packet conservation invariants every run
// must satisfy at any instant. Each law equates two exact uint64 sums;
// the in-flight populations (pending leading edges, tracked signals,
// MAC backlogs) enter as func-counters so no cutoff ambiguity exists.
func (nw *Network) registerLaws() {
	// Every scheduled (radio, frame) delivery is eventually either
	// dropped at an off radio or enters in-air tracking.
	nw.Metrics.Law("phy-delivery",
		[]string{"chan.deliveries"},
		[]string{"phy.dropped_off", "phy.signal_starts", "chan.pending_starts"})
	// Every tracked signal leaves tracking exactly once: trailing edge,
	// or flushed when its receiver powered down, or still on the air.
	nw.Metrics.Law("phy-signal",
		[]string{"phy.signal_starts"},
		[]string{"phy.signal_ends", "phy.flushed_by_off", "phy.in_air"})
	// Every frame handed to a MAC is dropped at the full queue, fully
	// withdrawn, completed, failed, lost at pause, or still backlogged.
	nw.Metrics.Law("mac-queue",
		[]string{"mac.enqueued"},
		[]string{"mac.dropped_full", "mac.dequeued", "mac.completed",
			"mac.unicast_failed", "mac.dropped_paused", "mac.backlog"})
}

// CheckInvariants evaluates every registered conservation law and
// returns the violations, if any. Experiments call it after each run;
// tests may call it at any instant.
func (nw *Network) CheckInvariants() error { return nw.Metrics.Check() }

// Install attaches one protocol instance per node using the factory and
// starts them. Call exactly once, before running the kernel. Protocols
// implementing metrics.Source register as one population per series
// table, tables in first-appearance order by node id; a factory may mix
// protocol types, and types that do not count are skipped.
func (nw *Network) Install(factory func(n *Node) Protocol) {
	block := func(i int) metrics.Block {
		if src, ok := nw.Nodes[i].Net.(metrics.Source); ok {
			return src.MetricBlock()
		}
		return metrics.Block{}
	}
	var tables []*metrics.Table
	for i, n := range nw.Nodes {
		n.Net = factory(n)
		if t := block(i).Table; t != nil && !slices.Contains(tables, t) {
			tables = append(tables, t)
			nw.Metrics.Population(t, len(nw.Nodes), block)
		}
	}
	// Separate loop: protocols may talk to neighbors during Start.
	for _, n := range nw.Nodes {
		n.Net.Start(n)
	}
}

// Run executes the simulation until time t.
func (nw *Network) Run(t sim.Time) { nw.Kernel.RunUntil(t) }

// MoveNode relocates a node (mobility extension), keeping the channel's
// spatial index and the node's own position in sync.
func (nw *Network) MoveNode(id packet.NodeID, p geo.Point) {
	nw.Channel.MoveTo(int(id), p)
	nw.Nodes[id].Pos = p
}

// MACPackets sums every MAC-layer transmission in the network —
// Figures 3 and 4's "Number of MAC Packets".
func (nw *Network) MACPackets() uint64 {
	var sum uint64
	for _, n := range nw.Nodes {
		sum += n.MAC.Count(mac.TxFrames)
	}
	return sum
}

// TotalEnergy sums every radio's consumption in joules at time now.
func (nw *Network) TotalEnergy() float64 {
	var sum float64
	for _, n := range nw.Nodes {
		sum += n.Radio.Energy().Total(nw.Kernel.Now())
	}
	return sum
}
