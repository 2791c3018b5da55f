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
//     /two-ray/shadowing/Rayleigh propagation, an SINR radio model, and
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
// shadowing, jamming) is installed on the built network, before the
// protocols:
//
//	inj, err := routeless.InstallFaults(nw, routeless.FaultPlan{
//		routeless.Crash(0.05),
//		routeless.Jam(24.5),
//	})
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

// NewKernel returns a kernel seeded for reproducible runs.
func NewKernel(seed int64) *Kernel { return sim.NewKernel(seed) }

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
	// FailureProcess injects §4.3 duty-cycle transceiver failures.
	// Prefer the fault plane's Crash spec, which drives the same
	// process with metrics and exclusion handling built in.
	FailureProcess = node.FailureProcess
)

// NetworkConfig describes a network to build; zero fields take the
// defaults noted on each field.
type NetworkConfig = node.Config

// NewNetwork builds a network from the config. It returns an error
// when construction cannot succeed: non-positive N without explicit
// positions, or no connected placement found under EnsureConnected.
// Hand-written experiments whose configs are literals wrap the call in
// Must; a fault plan is installed afterwards with InstallFaults.
func NewNetwork(cfg NetworkConfig) (*Network, error) { return node.New(cfg) }

// Must unwraps a constructor's result, panicking on its error.
func Must[T any](v T, err error) T { return node.Must(v, err) }

// NewFailureProcess builds a duty-cycle failure process for n.
var NewFailureProcess = node.NewFailureProcess

// Fault injection (the deterministic fault plane).
type (
	// FaultPlan is an ordered list of fault specs to install.
	FaultPlan = fault.Plan
	// FaultSpec is one typed fault in a plan (closed interface).
	FaultSpec = fault.Spec
	// FaultInjector is the handle InstallFaults returns.
	FaultInjector = fault.Injector
	// CrashSpec is the §4.3 duty-cycle crash/recovery fault.
	CrashSpec = fault.CrashSpec
	// DrainSpec is the battery-depletion fault.
	DrainSpec = fault.DrainSpec
	// DegradeSpec is the transient per-link shadowing fault.
	DegradeSpec = fault.DegradeSpec
	// JamSpec is the roaming interference-only jammer.
	JamSpec = fault.JamSpec
)

// Crash returns a duty-cycle crash fault with the given off fraction.
var Crash = fault.Crash

// Drain returns a battery-depletion fault with the given budget.
var Drain = fault.Drain

// Degrade returns a per-link shadowing fault with the given offset.
var Degrade = fault.Degrade

// Jam returns a roaming jammer with the given transmit power.
var Jam = fault.Jam

// InstallFaults wires a fault plan into a built network and returns
// the injector handle, or an error for an invalid plan. An empty plan
// is inert.
var InstallFaults = fault.Install

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
	// WeightedPolicy combines metrics.
	WeightedPolicy = core.Weighted
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

// NewFlooding builds a flooding instance from the config. The config is
// shared by every instance built from the same pointer (flood.New
// retains it); callers must not mutate it afterwards.
func NewFlooding(cfg *FloodConfig) *Flooding { return flood.New(cfg) }

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
	// AODVConfig parameterizes it.
	AODVConfig = routing.AODVConfig
	// Gradient is the simplified §4.4 comparator.
	Gradient = routing.Gradient
	// ActiveTable is Routeless Routing's only data structure.
	ActiveTable = routing.ActiveTable
)

// NewRouteless builds a Routeless Routing instance.
func NewRouteless(cfg RoutelessConfig) *Routeless { return routing.NewRouteless(cfg) }

// NewAODV builds an AODV instance.
func NewAODV(cfg AODVConfig) *AODV { return routing.NewAODV(cfg) }

// NewGradient builds a Gradient Routing instance.
func NewGradient() *Gradient { return routing.NewGradient() }

// Propagation models.
type (
	// PropagationModel computes deterministic path loss.
	PropagationModel = propagation.Model
	// FreeSpace is the Friis model used throughout the paper.
	FreeSpace = propagation.FreeSpace
	// TwoRay is the two-ray ground-reflection model.
	TwoRay = propagation.TwoRay
)

// NewFreeSpace returns the default free-space model at 914 MHz.
var NewFreeSpace = propagation.NewFreeSpace

// NewTwoRay returns the default two-ray model.
var NewTwoRay = propagation.NewTwoRay

// Traffic and measurement.
type (
	// CBR is a constant-bit-rate traffic source.
	CBR = traffic.CBR
	// TrafficPair is a source→destination connection.
	TrafficPair = traffic.Pair
	// Meter tracks delivery ratio, delay and hops.
	Meter = stats.Meter
	// Welford accumulates streaming statistics.
	Welford = stats.Welford
	// Table renders experiment output.
	Table = stats.Table
)

// NewCBR builds a stopped CBR flow from n toward target.
var NewCBR = traffic.NewCBR

// RandomPairs draws distinct source→destination connections.
var RandomPairs = traffic.RandomPairs

// NewTable creates a formatted results table.
var NewTable = stats.NewTable
