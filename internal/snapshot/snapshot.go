// Package snapshot is deterministic checkpoint/restore for scenario
// runs: Save captures a paused run as a small self-contained binary
// document, Load reconstructs a run in the identical state, and the
// contract between them is bitwise — "run 2T" and "run T, snapshot,
// restore, run T" produce identical journals and metric snapshots.
//
// The design is replay-verified rather than heap-serialized. A running
// simulation's state is dominated by closures: the event heap holds
// scheduled functions, timers capture protocol structs, the MAC's
// contention machine is woven through its kernel events. None of that
// can be written to disk directly. What CAN be written is the thing the
// whole simulator is already contractually bound to: the scenario
// document plus the seed determine every bit of state at every time.
// Save therefore records the document, the pause time T, and a set of
// state digests; Load rebuilds the run from the document, silently
// replays [0, T), and then verifies every digest before handing the run
// back. Replay cost is bounded by T — acceptable for the checkpoint
// sizes this repo's experiments use — and verification turns "restore
// looked plausible" into "restore is provably the same state": any
// drift between the saving and loading binary (or a nondeterminism bug)
// is caught at Load time with the diverging component named, instead of
// surfacing later as a silently wrong figure.
//
// Format (little-endian): an 8-byte magic "RLSNAP1\n", a uint32
// version, a uint32 scenario-JSON length and the JSON bytes, the pause
// time as float64 bits, the six digest words (see Digest), and a
// CRC-32 (IEEE) of everything before it.
package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"routeless/internal/scenario"
	"routeless/internal/sim"
)

// Magic opens every snapshot document.
const Magic = "RLSNAP1\n"

// Version is the current snapshot format version. Version 1 hashed
// (labels, draw count) per stream of a different generator, version 2
// folded tile indices and per-tile UID namespaces into the state word,
// and version 3 had every unfired signal edge among the pending event
// keys, where a transmission now has only its two cursors (the rest
// moved into the state word), version 4 hashed AODV's neighbour
// last-heard table and numbered the packet kinds after RERR from a
// hello kind on, version 5 hashed a per-radio transmit power into the
// state word, version 6 hashed each signal's power in dBm, a Routeless
// relay's always-zero re-ack word and the never-counted aodv.hellos and
// rr.re_acks series, and version 7 hashed Routeless relays and discovery
// forwards in two loops, a relay's per-transmission clone beside its
// frame, an immunization mark as an absent packet, a presence flag
// before every Routeless and AODV packet and a flooding forward's
// always-true held-by-value flag; none can match a replay, so such a
// file is refused up front.
const Version = 8

// maxScenarioLen bounds the embedded document so a corrupt length field
// cannot drive a huge allocation before the CRC check runs.
const maxScenarioLen = 16 << 20

// Typed error classes along the restore path. Handlers and tests match
// with errors.Is.
var (
	// ErrTruncated marks a document that ends before the format says it
	// should.
	ErrTruncated = errors.New("snapshot: truncated document")
	// ErrCorrupt marks a document whose framing or checksum is wrong.
	ErrCorrupt = errors.New("snapshot: corrupt document")
	// ErrVersion marks a document written by an incompatible format
	// version.
	ErrVersion = errors.New("snapshot: unsupported version")
	// ErrStateMismatch marks a restore whose replayed state does not
	// reproduce the saved digests — the saving and loading simulators
	// disagree, bit for bit, about what the scenario's state at T is.
	ErrStateMismatch = errors.New("snapshot: restored state diverges from checkpoint")
)

// Digest is the snapshot's state fingerprint: six independent 64-bit
// words, each covering one component of simulator state, so a restore
// mismatch names what diverged rather than reporting one opaque bit.
type Digest struct {
	// Now covers the kernel clock.
	Now uint64
	// Events covers the kernel's event heap: sequence counter,
	// processed count, and the sorted (time, seq) key of each pending
	// event.
	Events uint64
	// Pools covers the event pool's live and peak watermarks. Free-list
	// length is deliberately excluded: it records allocation history
	// (how many events a warm sweep arena had pre-allocated), which the
	// pooling contract already exempts from bitwise equivalence.
	Pools uint64
	// RNG covers every random stream's state, in creation order: its
	// derivation origin plus one increment per draw.
	RNG uint64
	// Metrics covers the canonical JSON of the full metrics snapshot.
	Metrics uint64
	// State covers the per-node simulation state proper: channel,
	// radios, MACs, protocols, traffic sources, movers, and the fault
	// plane's phase machines.
	State uint64
}

// Doc is a decoded snapshot document.
type Doc struct {
	// Scenario is the embedded run description.
	Scenario scenario.Scenario
	// T is the simulation time the run was paused at.
	T sim.Time
	// Digest fingerprints the saved state at T.
	Digest Digest
}

// Save writes a snapshot of run, which must be paused (not finished).
// The run is not modified; it can keep advancing afterwards.
func Save(w io.Writer, run *scenario.Run) error {
	if run == nil {
		return fmt.Errorf("snapshot: nil run")
	}
	if run.Finished() {
		return fmt.Errorf("snapshot: run already finished; a folded run cannot be resumed")
	}
	sc := run.Scenario()
	scJSON, err := json.Marshal(&sc)
	if err != nil {
		return fmt.Errorf("snapshot: encoding scenario: %w", err)
	}
	if len(scJSON) > maxScenarioLen {
		return fmt.Errorf("snapshot: scenario document too large (%d bytes)", len(scJSON))
	}
	d := Fingerprint(run)

	buf := make([]byte, 0, len(Magic)+4+4+len(scJSON)+8+6*8+4)
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(scJSON)))
	buf = append(buf, scJSON...)
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(float64(run.Now())))
	for _, word := range []uint64{d.Now, d.Events, d.Pools, d.RNG, d.Metrics, d.State} {
		buf = binary.LittleEndian.AppendUint64(buf, word)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))

	_, err = w.Write(buf)
	return err
}

// Read decodes and validates a snapshot document without building
// anything: framing, version, checksum, and scenario validity.
func Read(r io.Reader) (*Doc, error) {
	head := make([]byte, len(Magic)+4+4)
	if err := readFull(r, head); err != nil {
		return nil, err
	}
	if string(head[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	crc := crc32.NewIEEE()
	crc.Write(head)
	ver := binary.LittleEndian.Uint32(head[len(Magic):])
	if ver != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, ver, Version)
	}
	scLen := binary.LittleEndian.Uint32(head[len(Magic)+4:])
	if scLen > maxScenarioLen {
		return nil, fmt.Errorf("%w: scenario length %d exceeds limit", ErrCorrupt, scLen)
	}
	body := make([]byte, int(scLen)+8+6*8)
	if err := readFull(r, body); err != nil {
		return nil, err
	}
	crc.Write(body)
	var trailer [4]byte
	if err := readFull(r, trailer[:]); err != nil {
		return nil, err
	}
	if got, want := binary.LittleEndian.Uint32(trailer[:]), crc.Sum32(); got != want {
		return nil, fmt.Errorf("%w: checksum %#x, computed %#x", ErrCorrupt, got, want)
	}

	doc := &Doc{}
	sc, err := scenario.Parse(body[:scLen])
	if err != nil {
		return nil, fmt.Errorf("%w: embedded scenario: %w", ErrCorrupt, err)
	}
	doc.Scenario = sc
	rest := body[scLen:]
	doc.T = sim.Time(floatFromBits(binary.LittleEndian.Uint64(rest)))
	words := rest[8:]
	for i, p := range []*uint64{
		&doc.Digest.Now, &doc.Digest.Events, &doc.Digest.Pools,
		&doc.Digest.RNG, &doc.Digest.Metrics, &doc.Digest.State,
	} {
		*p = binary.LittleEndian.Uint64(words[i*8:])
	}
	if !(float64(doc.T) >= 0) {
		return nil, fmt.Errorf("%w: negative or NaN pause time %v", ErrCorrupt, doc.T)
	}
	return doc, nil
}

// Load restores a run from a snapshot: decode, rebuild from the
// embedded scenario, replay deterministically to the pause time, and
// verify every state digest. The returned run is paused at Doc.T,
// journal-less, ready for SetJournal and AdvanceTo.
func Load(r io.Reader) (*scenario.Run, error) {
	return LoadWith(r, scenario.BuildOptions{})
}

// LoadWith is Load with explicit build options (a sweep worker's
// reusable runtime, typically).
func LoadWith(r io.Reader, opts scenario.BuildOptions) (*scenario.Run, error) {
	doc, err := Read(r)
	if err != nil {
		return nil, err
	}
	return doc.Restore(opts)
}

// Restore builds the document's run and replays it to the pause time,
// verifying the state digests. Callers that already hold a decoded Doc
// (a server that validated on upload) restore without re-reading.
func (doc *Doc) Restore(opts scenario.BuildOptions) (*scenario.Run, error) {
	run, err := scenario.BuildWith(doc.Scenario, opts)
	if err != nil {
		return nil, err
	}
	if doc.T > run.End() {
		return nil, fmt.Errorf("%w: pause time %v beyond run end %v", ErrCorrupt, doc.T, run.End())
	}
	// Replay is silent: no journal is attached, so the rebuilt run
	// emits nothing for [0, T) — those records belong to the original
	// run's prefix.
	if err := run.AdvanceTo(doc.T); err != nil {
		return nil, fmt.Errorf("snapshot: replaying to t=%v: %w", doc.T, err)
	}
	got := Fingerprint(run)
	if got != doc.Digest {
		return nil, fmt.Errorf("%w at t=%v: %s", ErrStateMismatch, doc.T, diffDigest(doc.Digest, got))
	}
	return run, nil
}

// diffDigest names every diverging component — the error message is the
// debugging entry point for a failed restore.
func diffDigest(want, got Digest) string {
	var bad []byte
	add := func(name string, w, g uint64) {
		if w != g {
			if len(bad) > 0 {
				bad = append(bad, ", "...)
			}
			bad = fmt.Appendf(bad, "%s (saved %#x, replayed %#x)", name, w, g)
		}
	}
	add("clock", want.Now, got.Now)
	add("event heap", want.Events, got.Events)
	add("event pools", want.Pools, got.Pools)
	add("rng streams", want.RNG, got.RNG)
	add("metrics", want.Metrics, got.Metrics)
	add("node state", want.State, got.State)
	return string(bad)
}

// readFull reads exactly len(buf) bytes, mapping short reads to
// ErrTruncated.
func readFull(r io.Reader, buf []byte) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		return err
	}
	return nil
}
