// Package node assembles the per-node protocol stack (radio, MAC,
// network protocol, application hook) and builds whole networks from a
// topology description. It also implements the paper's §4.3 failure
// model: a duty-cycle process that turns transceivers off a configured
// fraction of the time.
package node

import (
	"math/rand"

	"routeless/internal/geo"
	"routeless/internal/mac"
	"routeless/internal/packet"
	"routeless/internal/phy"
	"routeless/internal/sim"
)

// Protocol is a network-layer implementation (flooding variant or
// routing protocol). Exactly one protocol instance runs per node.
type Protocol interface {
	// Start wires the protocol to its node; called once, before any
	// traffic, with the node fully assembled.
	Start(n *Node)
	// OnDeliver sees every frame the MAC decodes (promiscuous), with
	// its receive power. pkt is valid for the call: read or mutate it,
	// and keep pkt.Clone() — never pkt — past the call.
	OnDeliver(pkt *packet.Packet, rssiDBm float64)
	// OnSent reports a frame this node transmitted (broadcast done or
	// unicast acknowledged).
	OnSent(pkt *packet.Packet)
	// OnUnicastFailed reports a unicast frame that exhausted its
	// link-layer retries.
	OnUnicastFailed(pkt *packet.Packet)
	// Send originates size bytes of application data toward target.
	Send(target packet.NodeID, size int)
}

// Node is one simulated wireless node.
type Node struct {
	ID     packet.NodeID
	Pos    geo.Point
	Kernel *sim.Kernel
	Radio  *phy.Radio
	MAC    *mac.MAC
	Net    Protocol
	Rng    *rand.Rand // network-layer random stream

	// OnAppReceive, if set, is invoked when the protocol delivers an
	// application packet addressed to this node. pkt is valid for the
	// call (it may be the radio's lent copy): read it, and keep
	// pkt.Clone() if it must outlive the call.
	OnAppReceive func(pkt *packet.Packet)

	failing bool
}

// Deliver hands an application packet up from the protocol.
func (n *Node) Deliver(pkt *packet.Packet) {
	if n.OnAppReceive != nil {
		n.OnAppReceive(pkt)
	}
}

// Up reports whether the node's transceiver is currently operational.
func (n *Node) Up() bool { return n.Radio.On() }

// Fail turns the transceiver off and pauses the MAC.
func (n *Node) Fail() {
	if n.failing {
		return
	}
	n.failing = true
	n.Radio.TurnOff()
	n.MAC.Pause()
}

// Recover turns the transceiver back on and resumes the MAC.
func (n *Node) Recover() {
	if !n.failing {
		return
	}
	n.failing = false
	n.Radio.TurnOn()
	n.MAC.Resume()
}

// Sleep puts the transceiver into its low-power state and pauses the
// MAC — the voluntary power-down §4.2 says Routeless Routing permits
// even for nodes on active routes. Behavior matches Fail; only the
// energy accounting differs.
func (n *Node) Sleep() {
	if n.failing {
		return
	}
	n.failing = true
	n.Radio.Sleep()
	n.MAC.Pause()
}

// Wake resumes from Sleep.
func (n *Node) Wake() { n.Recover() }

// macAdapter forwards MAC events to the node's protocol; it keeps the
// Protocol interface free of the mac.Handler names.
type macAdapter struct{ n *Node }

func (a macAdapter) OnDeliver(p *packet.Packet, rssi float64) {
	if a.n.Net != nil {
		a.n.Net.OnDeliver(p, rssi)
	}
}

func (a macAdapter) OnSent(p *packet.Packet) {
	if a.n.Net != nil {
		a.n.Net.OnSent(p)
	}
}

func (a macAdapter) OnUnicastFailed(p *packet.Packet) {
	if a.n.Net != nil {
		a.n.Net.OnUnicastFailed(p)
	}
}
