// Package phy implements the physical layer of the simulated wireless
// network: half-duplex radios with carrier sensing and an SINR-based
// collision/capture model, the shared broadcast channel that couples
// them through a propagation model, and per-radio energy accounting.
//
// The model follows the usual ns-2/SENSE conventions: a frame locks the
// receiver when it arrives above the receive threshold while the radio
// is idle; overlapping energy corrupts it unless the frame stays above
// the capture ratio; anything above the carrier-sense threshold marks
// the medium busy.
package phy

import (
	"fmt"

	"routeless/internal/metrics"
	"routeless/internal/packet"
	"routeless/internal/propagation"
	"routeless/internal/sim"
)

// State is the transceiver state.
type State uint8

// Radio states. Off models the paper's §4.3 node failures ("the
// transceiver of a node is turned off and not able to transmit or
// receive any packets"); Sleep is the low-power state Routeless Routing
// permits route nodes to enter (§4.2).
const (
	StateIdle State = iota
	StateRx
	StateTx
	StateSleep
	StateOff
)

var stateNames = [...]string{"idle", "rx", "tx", "sleep", "off"}

// String implements fmt.Stringer.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Params configures a radio. The zero value is not usable; start from
// DefaultParams.
type Params struct {
	TxPowerDBm    float64 // transmit power
	RxThreshDBm   float64 // minimum power to decode a frame
	CSThreshDBm   float64 // minimum power to sense the medium busy
	NoiseFloorDBm float64 // thermal noise for SINR
	CaptureDB     float64 // SINR (dB) a frame needs to survive overlap
	BitRate       float64 // bps; drives frame airtime
}

// DefaultParams returns radio parameters calibrated so that the given
// propagation model yields the requested transmission range, with a
// carrier-sense range about twice that — the classic 250 m / 550 m
// WaveLAN ratio the paper's testbed conventions imply.
func DefaultParams(m propagation.Model, rangeMeters float64) Params {
	const tx = 24.5 // dBm ≈ 280 mW, the ns-2 WaveLAN default
	rxThresh := propagation.ThresholdFor(m, tx, rangeMeters)
	csThresh := propagation.ThresholdFor(m, tx, rangeMeters*2.2)
	return Params{
		TxPowerDBm:    tx,
		RxThreshDBm:   rxThresh,
		CSThreshDBm:   csThresh,
		NoiseFloorDBm: -101,
		CaptureDB:     10,
		BitRate:       1e6,
	}
}

// AirTime returns the on-air duration of a frame of size bytes.
func (p Params) AirTime(bytes int) sim.Time {
	return sim.Time(float64(bytes*8) / p.BitRate)
}

// Listener receives PHY indications; the MAC layer implements it.
type Listener interface {
	// OnReceive delivers a successfully decoded frame with its receive
	// power — the signal strength SSAF derives its backoff from (§3).
	// pkt is lent for the call: a fresh copy of the frame that the
	// listener may read or mutate, zeroed when the call returns. A
	// listener that keeps the packet keeps pkt.Clone().
	OnReceive(pkt *packet.Packet, rssiDBm float64)
	// OnMediumBusy and OnMediumIdle report carrier-sense transitions.
	OnMediumBusy()
	OnMediumIdle()
	// OnTxDone reports that the frame handed to Transmit left the air.
	OnTxDone()
}

// RadioSeries indexes one cell of a radio's counter block.
type RadioSeries uint8

// The phy.* counters, in journal order.
const (
	TxFrames     RadioSeries = iota // frames transmitted
	RxFrames                        // frames delivered to the listener
	Collisions                      // frames corrupted by overlapping energy
	MissedWeak                      // decodable frames lost to in-progress activity
	DroppedOff                      // frames that arrived while sleeping or off
	AbortedByTx                     // receptions aborted by our own transmission
	AbortedByOff                    // receptions aborted by turning the radio off
	TxAborted                       // own transmissions truncated by power-down
	Truncated                       // decodable frames lost to the sender's power-down
	SignalStarts                    // leading edges that entered in-air tracking
	SignalEnds                      // trailing edges that left in-air tracking
	FlushedByOff                    // tracked in-air signals forgotten by power-down
	numRadioSeries
)

// radioTable names the series; it is the only place they are spelled.
var radioTable = metrics.Table{Counters: []string{
	TxFrames:     "phy.tx_frames",
	RxFrames:     "phy.rx_frames",
	Collisions:   "phy.collisions",
	MissedWeak:   "phy.missed_weak",
	DroppedOff:   "phy.dropped_off",
	AbortedByTx:  "phy.aborted_by_tx",
	AbortedByOff: "phy.aborted_by_off",
	TxAborted:    "phy.tx_aborted",
	Truncated:    "phy.truncated",
	SignalStarts: "phy.signal_starts",
	SignalEnds:   "phy.signal_ends",
	FlushedByOff: "phy.flushed_by_off",
}}

// frame is one transmission's packet as it exists on the air: the
// snapshot Channel.launch takes of the sender's packet, shared
// read-only by every signal of that transmission — all receivers.
// Nothing mutates it and it never leaves this package: a receiver that
// decodes it is lent a copy in the channel's receive buffer
// (Radio.signalEnd), so listeners may rewrite theirs and the sender may
// reuse its own.
type frame struct{ pkt packet.Packet }

// signal is one frame in flight at a particular receiver: one element
// of its transmission's slab. It holds no pointers, so the collector
// never scans a slab.
type signal struct {
	rcv     int32 // receiver node id
	tracked bool
	// aborted marks a signal whose transmitter powered down mid-frame:
	// it keeps interfering (the energy was radiated) but never decodes.
	aborted bool
	// lead and trail are the keys the signal's two edges fire under.
	// lead's sequence number is taken at transmit, in receiver-id order;
	// trail's when the leading edge fires.
	lead, trail sim.EventKey
	powerDBm    float64
	powerMW     float64
}

// Radio is a half-duplex transceiver attached to a Channel.
//
// The hottest per-node scalars do not live here: the transceiver phase
// (up/down and rx/tx state), the live transmit power, and the energy
// meter are struct-of-arrays state owned by the Channel — contiguous
// slices indexed by node id, allocated arena-style from the channel's
// Pools (see Pools.radioArena). The Radio holds its id and channel
// pointer and reads/writes those arrays through accessors, so a
// million-radio network touches dense arrays instead of a million
// heap objects.
type Radio struct {
	id packet.NodeID
	// params points at the Channel's single shared copy: every radio on
	// a channel runs the same receive-side configuration, and an inline
	// 48-byte duplicate per node is real arena weight at mega scale.
	// The linear-domain threshold cache lives on the Channel too (see
	// Channel.noiseMW and friends).
	params   *Params
	kernel   *sim.Kernel
	channel  *Channel
	listener Listener

	inAir     []*signal
	rx        *signal
	rxCorrupt bool
	busy      bool // last carrier-sense state reported

	// txLive is the transmission currently on the air, so a mid-TX
	// power-down can mark its signals aborted. Cleared by txDone and
	// powerDown; every trailing edge fires after txDone (which is queued
	// first, for the same instant at the earliest), so the transmission
	// is never recycled while it is live.
	txLive *transmission
	// txEnd is when the current transmission leaves the air; it guards
	// txDone against a stale completion event from a transmission that a
	// power-down already truncated.
	txEnd sim.Time

	stats [numRadioSeries]metrics.Counter32
}

// ID returns the radio's node id.
func (r *Radio) ID() packet.NodeID { return r.id }

// State returns the current transceiver state (a read of the channel's
// struct-of-arrays phase slot).
func (r *Radio) State() State { return r.channel.states[r.id] }

// Params returns the radio's configuration, with the live transmit
// power (which SetTxPower may have changed since construction).
func (r *Radio) Params() Params {
	p := *r.params
	p.TxPowerDBm = r.channel.txPow[r.id]
	return p
}

// Count returns the current value of one of the radio's counters.
func (r *Radio) Count(s RadioSeries) uint64 { return r.stats[s].Value() }

// Energy returns the radio's energy meter (a view into the channel's
// struct-of-arrays meter slot).
func (r *Radio) Energy() *Energy { return &r.channel.energies[r.id] }

// SetListener installs the MAC; it must be called before any traffic.
func (r *Radio) SetListener(l Listener) { r.listener = l }

// SetTxPower changes this radio's transmit power. Asymmetric powers
// create the unidirectional links whose effect on Routeless Routing §4
// discusses ("may negatively affect the efficiency, but not the
// correctness").
func (r *Radio) SetTxPower(dbm float64) {
	r.channel.txPow[r.id] = dbm
	r.channel.invalidateLinks(int(r.id))
}

// On reports whether the radio can currently send or receive.
func (r *Radio) On() bool {
	s := r.channel.states[r.id]
	return s != StateOff && s != StateSleep
}

// CarrierBusy reports whether the medium is sensed busy: the radio is
// transmitting, locked on a frame, or total in-air power exceeds the
// carrier-sense threshold. The comparison runs in the linear domain
// (milliwatts), which is equivalent to the dB comparison because log10
// is strictly increasing.
func (r *Radio) CarrierBusy() bool {
	if s := r.channel.states[r.id]; s == StateTx || s == StateRx {
		return true
	}
	return r.inAirMW() >= r.channel.csThreshMW
}

func (r *Radio) inAirMW() float64 {
	var sum float64
	for _, s := range r.inAir {
		sum += s.powerMW
	}
	return sum
}

// interferenceMW returns noise plus in-air power, excluding the frame
// under consideration.
func (r *Radio) interferenceMW(frame *signal) float64 {
	sum := r.channel.noiseMW
	for _, s := range r.inAir {
		if s != frame {
			sum += s.powerMW
		}
	}
	return sum
}

// sinrOK checks the capture condition in the linear domain:
// signal/interference >= capture ratio, the monotone image of
// signalDB - interferenceDB >= CaptureDB.
func (r *Radio) sinrOK(frame *signal) bool {
	interf := r.interferenceMW(frame)
	if interf <= 0 {
		return true
	}
	return frame.powerMW >= interf*r.channel.captureRatio
}

// Transmit puts a frame on the air. Receivers decode pkt as it is at
// this call (plus From and a first-transmission UID, which Transmit
// writes into it); the caller may mutate or reuse it afterwards. The
// caller (MAC) is responsible for carrier sensing; transmitting while
// receiving aborts the reception (half-duplex). Transmit panics if the
// radio is off, asleep, or already transmitting — those are MAC bugs,
// not channel conditions.
func (r *Radio) Transmit(pkt *packet.Packet) {
	switch r.State() {
	case StateOff, StateSleep:
		panic(fmt.Sprintf("phy: %v Transmit while %v", r.id, r.State()))
	case StateTx:
		panic(fmt.Sprintf("phy: %v Transmit while already transmitting", r.id))
	case StateRx:
		r.stats[AbortedByTx].Inc()
		r.rx = nil
		r.rxCorrupt = false
	}
	r.setState(StateTx)
	r.updateCarrier() // our own transmission makes the medium busy
	r.stats[TxFrames].Inc()
	pkt.From = r.id
	dur := r.params.AirTime(pkt.Size)
	r.txEnd = r.kernel.Now() + dur
	r.txLive = r.channel.transmit(r, pkt, dur)
	r.kernel.Schedule(dur, r.txDone)
}

func (r *Radio) txDone() {
	if r.State() != StateTx { // turned off mid-transmission
		return
	}
	if r.kernel.Now() < r.txEnd { // stale event from a truncated transmission
		return
	}
	r.txLive = nil
	r.setState(StateIdle)
	if r.listener != nil {
		r.listener.OnTxDone()
	}
	r.updateCarrier()
}

// signalStart is called by the channel when a frame's leading edge
// reaches this radio.
func (r *Radio) signalStart(s *signal) {
	if !r.On() {
		r.stats[DroppedOff].Inc()
		return
	}
	s.tracked = true
	r.stats[SignalStarts].Inc()
	r.inAir = append(r.inAir, s)
	switch r.State() {
	case StateIdle:
		if s.powerDBm >= r.params.RxThreshDBm {
			switch {
			case !r.sinrOK(s):
				r.stats[MissedWeak].Inc()
			case s.aborted:
				// Would have locked, but the sender powered down before
				// the leading edge arrived: the truncated frame still
				// interferes but carries nothing decodable.
				r.stats[Truncated].Inc()
			default:
				r.rx = s
				r.rxCorrupt = false
				r.setState(StateRx)
			}
		}
	case StateRx:
		if !r.sinrOK(r.rx) {
			if !r.rxCorrupt {
				r.rxCorrupt = true
				r.stats[Collisions].Inc()
			}
		}
	case StateTx:
		// Half-duplex: we hear nothing of it.
	}
	r.updateCarrier()
}

// signalEnd is called by the channel when the trailing edge of frame f
// passes this radio. A decoded frame is copied into the channel's one
// receive buffer and lent to the listener for the call; the buffer is
// zeroed afterwards, so a listener that wrongly kept the pointer reads
// a zero packet rather than the next decode.
func (r *Radio) signalEnd(s *signal, f *frame) {
	if !s.tracked {
		return // arrived while off/asleep, or flushed by our power-down
	}
	r.stats[SignalEnds].Inc()
	for i, in := range r.inAir {
		if in == s {
			last := len(r.inAir) - 1
			r.inAir[i] = r.inAir[last]
			r.inAir[last] = nil // the backing array must not pin the slab
			r.inAir = r.inAir[:last]
			break
		}
	}
	if r.rx == s {
		ok := !r.rxCorrupt && r.State() == StateRx
		r.rx = nil
		r.rxCorrupt = false
		if r.State() == StateRx {
			r.setState(StateIdle)
		}
		if ok {
			if s.aborted {
				// Locked on it, but the sender powered down mid-frame:
				// the tail never made it onto the air.
				r.stats[Truncated].Inc()
			} else {
				r.stats[RxFrames].Inc()
				if r.listener != nil {
					buf := &r.channel.rxBuf
					*buf = f.pkt
					r.listener.OnReceive(buf, s.powerDBm)
					*buf = packet.Packet{}
				}
			}
		}
	}
	r.updateCarrier()
}

func (r *Radio) updateCarrier() {
	busy := r.CarrierBusy()
	if busy == r.busy || r.listener == nil {
		r.busy = busy
		return
	}
	r.busy = busy
	if busy {
		r.listener.OnMediumBusy()
	} else {
		r.listener.OnMediumIdle()
	}
}

// TurnOff models a transceiver failure or a deliberate power-down. Any
// reception in progress is lost, in-flight signals are forgotten, and a
// transmission in progress is truncated mid-air: its signals keep
// interfering at their receivers (the energy already radiated) but are
// marked aborted and never decode. Energy is charged for the pre-off
// interval at the pre-off state's draw (setState transitions the meter
// with the old state).
func (r *Radio) TurnOff() { r.powerDown(StateOff) }

// Sleep enters the low-power listening-off state; semantics match
// TurnOff but energy accounting differs.
func (r *Radio) Sleep() { r.powerDown(StateSleep) }

func (r *Radio) powerDown(s State) {
	cur := r.State()
	if cur == StateOff || cur == StateSleep {
		r.setState(s)
		return
	}
	if r.rx != nil {
		r.stats[AbortedByOff].Inc()
		r.rx = nil
		r.rxCorrupt = false
	}
	if cur == StateTx {
		// Truncate the transmission in flight: receivers that would have
		// decoded it count it as truncated instead.
		r.stats[TxAborted].Inc()
		if t := r.txLive; t != nil {
			for i := range t.signals {
				t.signals[i].aborted = true
			}
			r.txLive = nil
		}
	}
	for _, in := range r.inAir {
		in.tracked = false
		r.stats[FlushedByOff].Inc()
	}
	clear(r.inAir)
	r.inAir = r.inAir[:0]
	r.setState(s)
	r.busy = false
}

// TurnOn restores the radio to idle. Frames whose leading edge passed
// while the radio was off are not heard.
func (r *Radio) TurnOn() {
	if r.On() {
		return
	}
	r.setState(StateIdle)
	r.updateCarrier()
}

func (r *Radio) setState(s State) {
	st := &r.channel.states[r.id]
	r.channel.energies[r.id].Transition(r.kernel.Now(), *st, s)
	*st = s
}
