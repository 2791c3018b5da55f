// Package routeless is a discrete-event wireless network simulator and
// protocol suite reproducing Chen, Branch & Szymanski, "Local Leader
// Election, Signal Strength Aware Flooding, and Routeless Routing"
// (WMAN/IPDPS 2005).
//
// The package is a façade over the internal implementation:
//
//   - the local leader election engine (the paper's §2 contribution):
//     Elector, Arbiter, and the BackoffPolicy metric family;
//   - the flooding family (§3): counter-1 flooding and SSAF;
//   - Routeless Routing (§4) with an AODV baseline and a simplified
//     Gradient Routing comparator;
//   - the substrate they run on: a deterministic DES kernel, free-space
//     path loss with optional Rayleigh fading, an SINR radio model, and
//     a CSMA/CA MAC with a priority queue between NET and MAC;
//   - the experiment harness regenerating every figure of the paper's
//     evaluation (see internal/experiments and cmd/wmansim).
//
// # Quickstart
//
//	nw := routeless.Must(routeless.NewNetwork(routeless.NetworkConfig{
//		N: 100, Seed: 42, EnsureConnected: true,
//	}))
//	nw.Install(func(n *routeless.Node) routeless.Protocol {
//		return routeless.NewRouteless(routeless.RoutelessConfig{})
//	})
//	nw.Nodes[7].OnAppReceive = func(p *routeless.Packet) { /* delivered */ }
//	nw.Nodes[0].Net.Send(7, 256)
//	nw.Run(10) // simulated seconds
//
// Deterministic fault injection (crashes, battery drain, link
// shadowing, jamming) is a Scenario's faults list, wired by Build like
// the rest of the document:
//
//	sc.Faults = []routeless.FaultSpec{
//		{Kind: "crash", OffFraction: 0.05, Exclude: []int{0, 7}},
//		{Kind: "jam", TxPowerDBm: 24.5},
//	}
//	run, err := routeless.Build(sc)
//
// See examples/ for runnable programs and DESIGN.md for the system
// inventory.
package routeless

import (
	"routeless/internal/core"
	"routeless/internal/fault"
	"routeless/internal/flood"
	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/propagation"
	"routeless/internal/routing"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/traffic"
)

// Simulation kernel.
type (
	// Kernel is the discrete-event scheduler every simulation runs on.
	Kernel = sim.Kernel
	// Time is simulation time in seconds.
	Time = sim.Time
	// Timer is a restartable one-shot timer bound to a Kernel.
	Timer = sim.Timer
	// Ticker repeats a callback at a fixed period.
	Ticker = sim.Ticker
)

// NewKernel returns a kernel whose clock starts at 0. It owns no random
// stream: a run draws from the streams its components are handed.
func NewKernel() *Kernel { return sim.NewKernelPooled(nil) }

// Topology and packets.
type (
	// Point is a node position in meters.
	Point = geo.Point
	// Rect is the simulation terrain.
	Rect = geo.Rect
	// NodeID identifies a node.
	NodeID = packet.NodeID
	// Packet is the in-simulation packet model. A packet handed to a
	// receive hook (Node.OnAppReceive, Protocol.OnDeliver) is valid for
	// the call only: read or mutate it, and Clone it to keep it.
	Packet = packet.Packet
	// Kind classifies packets.
	Kind = packet.Kind
)

// Broadcast is the MAC destination addressing all nodes in range.
const Broadcast = packet.Broadcast

// Packet kinds most useful to applications and hooks.
const (
	// KindData is an application payload routed hop by hop.
	KindData = packet.KindData
	// KindFlood is a flooded application payload.
	KindFlood = packet.KindFlood
	// KindDiscovery is a Routeless path discovery packet.
	KindDiscovery = packet.KindDiscovery
	// KindReply is a Routeless path reply packet.
	KindReply = packet.KindReply
)

// NewRect returns the terrain spanning (0,0)–(w,h) meters.
func NewRect(w, h float64) Rect { return geo.NewRect(w, h) }

// Network assembly.
type (
	// Network is a fully assembled simulation.
	Network = node.Network
	// Node is one simulated wireless node.
	Node = node.Node
	// Protocol is a network-layer implementation.
	Protocol = node.Protocol
)

// NetworkConfig describes a network to build; zero fields take the
// defaults noted on each field.
type NetworkConfig = node.Config

// NewNetwork builds a network from the config. It returns an error
// when construction cannot succeed: non-positive N without explicit
// positions, or no connected placement found under EnsureConnected.
// Hand-written experiments whose configs are literals wrap the call in
// Must.
func NewNetwork(cfg NetworkConfig) (*Network, error) { return node.New(cfg) }

// Must unwraps a constructor's result, panicking on its error.
func Must[T any](v T, err error) T { return node.Must(v, err) }

// Local leader election (§2).
type (
	// Elector is one node's participation in local leader elections.
	Elector = core.Elector
	// Arbiter implements §2's reliability extension.
	Arbiter = core.Arbiter
	// ElectionOutcome is an elector's view of a finished round.
	ElectionOutcome = core.Outcome
	// Medium abstracts the broadcast neighborhood electors run over.
	Medium = core.Medium
	// Cluster is an abstract lossy test medium.
	Cluster = core.Cluster
	// BackoffPolicy derives election backoff delays from a metric.
	BackoffPolicy = core.BackoffPolicy
	// PolicyContext carries the metric inputs at a sync point.
	PolicyContext = core.Context
	// UniformPolicy is the classic random backoff.
	UniformPolicy = core.Uniform
	// SignalStrengthPolicy is SSAF's metric (§3).
	SignalStrengthPolicy = core.SignalStrength
	// HopGradientPolicy is Routeless Routing's metric (§4.1).
	HopGradientPolicy = core.HopGradient
	// GradientSignalPolicy is the hop gradient with SSAF-style
	// tie-breaking inside each band (the conclusion's combination).
	GradientSignalPolicy = core.GradientSignal
	// LocationPolicy is idealized location-based flooding (§3).
	LocationPolicy = core.LocationAware
)

// NewElector builds an elector for node id over medium using policy.
var NewElector = core.NewElector

// NewArbiter builds an arbiter for node id.
var NewArbiter = core.NewArbiter

// NewCluster builds an abstract broadcast neighborhood for elections.
var NewCluster = core.NewCluster

// Flooding (§3).
type (
	// Flooding is the flooding protocol family.
	Flooding = flood.Flooding
	// FloodConfig selects the flooding variant.
	FloodConfig = flood.Config
)

// InstallFlooding gives every node of a network a flooding instance of
// the config, in place of Network.Install: the instances share one copy
// of the config and one pool of armed rebroadcasts, which belongs to
// that network alone.
func InstallFlooding(nw *Network, cfg FloodConfig) { flood.Install(nw, cfg) }

// Counter1Config is the paper's dedup-flooding baseline.
var Counter1Config = flood.Counter1Config

// SSAFConfig is Signal Strength Aware Flooding.
var SSAFConfig = flood.SSAFConfig

// Routing (§4).
type (
	// Routeless is the paper's Routeless Routing protocol.
	Routeless = routing.Routeless
	// RoutelessConfig parameterizes it.
	RoutelessConfig = routing.RoutelessConfig
	// AODV is the explicit-route baseline.
	AODV = routing.AODV
	// Gradient is the simplified §4.4 comparator.
	Gradient = routing.Gradient
	// ActiveTable is Routeless Routing's only data structure.
	ActiveTable = routing.ActiveTable
)

// NewRouteless builds a Routeless Routing instance.
func NewRouteless(cfg RoutelessConfig) *Routeless { return routing.NewRouteless(cfg) }

// NewAODV builds an AODV instance.
func NewAODV() *AODV { return routing.NewAODV() }

// NewGradient builds a Gradient Routing instance.
func NewGradient() *Gradient { return routing.NewGradient() }

// FreeSpace is the Friis path-loss model used throughout the paper.
type FreeSpace = propagation.FreeSpace

// NewFreeSpace returns the default free-space model at 914 MHz.
var NewFreeSpace = propagation.NewFreeSpace

// Traffic and measurement.
type (
	// CBR is a constant-bit-rate traffic source.
	CBR = traffic.CBR
	// TrafficPair is a source→destination connection.
	TrafficPair = traffic.Pair
	// Welford accumulates streaming statistics.
	Welford = stats.Welford
	// Table renders experiment output.
	Table = stats.Table
)

// Wired runs: the one way every figure, document and example builds,
// drives and scores a run.
type (
	// Scenario is the validated run document: network, protocol, flows,
	// mobility, faults and traffic window.
	Scenario = scenario.Scenario
	// Flow is one constant-bit-rate source of a Scenario.
	Flow = scenario.Flow
	// Mobility moves a Scenario's first Movers nodes by random waypoint.
	Mobility = scenario.Mobility
	// FaultSpec is one entry of a Scenario's faults list: a crash
	// (§4.3's duty-cycle transceiver failures), drain, degrade or jam.
	FaultSpec = fault.Spec
	// RunMetrics is a finished run's delay, hops, delivery ratio, MAC
	// transmissions and energy.
	RunMetrics = scenario.RunMetrics
)

// Build validates a Scenario and wires it into a run; its Finish drains
// the run, checks the conservation laws and returns the RunMetrics.
var Build = scenario.Build

// NewCBR builds a stopped CBR flow from n toward target.
var NewCBR = traffic.NewCBR

// RandomPairs draws distinct source→destination connections.
var RandomPairs = traffic.RandomPairs

// NewTable creates a formatted results table.
var NewTable = stats.NewTable
