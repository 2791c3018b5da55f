package snapshot

import (
	"encoding/json"
	"math"

	"routeless/internal/digest"
	"routeless/internal/scenario"
)

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Fingerprint computes the run's full state digest — the six words a
// snapshot stores and a restore must reproduce. Every walk below is in
// a deterministic order: pending events by key, nodes by id, maps
// sorted inside each DigestState.
func Fingerprint(run *scenario.Run) Digest {
	nw := run.Network()
	k := nw.Kernel

	var d Digest

	hn := digest.New()
	hn.Float64(float64(k.Now()))
	d.Now = hn.Sum()

	he := digest.New()
	he.Uint64(k.Seq())
	he.Uint64(k.Processed())
	keys := k.PendingKeys()
	he.Int(len(keys))
	for _, ek := range keys {
		he.Float64(float64(ek.At))
		he.Uint64(ek.Seq)
	}
	d.Events = he.Sum()

	hp := digest.New()
	hp.Int(k.Pool().Live())
	hp.Int(k.Pool().Peak())
	d.Pools = hp.Sum()

	hr := digest.New()
	hr.Int(nw.RNG.Len())
	nw.RNG.Visit(hr.Uint64)
	d.RNG = hr.Sum()

	hm := digest.New()
	snap, err := json.Marshal(nw.Metrics.Snapshot())
	if err != nil {
		panic(err) // a metrics snapshot that cannot encode is itself a bug
	}
	hm.Bytes(snap)
	d.Metrics = hm.Sum()

	hs := digest.New()
	nw.Channel.DigestState(&hs)
	hs.Int(len(nw.Nodes))
	for _, n := range nw.Nodes {
		n.DigestState(&hs)
		n.Radio.DigestState(&hs)
		n.MAC.DigestState(&hs)
		if s, ok := n.Net.(digest.Stater); ok {
			hs.Bool(true)
			s.DigestState(&hs)
		} else {
			hs.Bool(false)
		}
	}
	cbrs := run.Traffic()
	hs.Int(len(cbrs))
	for _, c := range cbrs {
		c.DigestState(&hs)
	}
	movers := run.Movers()
	hs.Int(len(movers))
	for _, w := range movers {
		w.DigestState(&hs)
	}
	if inj := run.Faults(); inj != nil {
		hs.Bool(true)
		inj.DigestState(&hs)
	} else {
		hs.Bool(false)
	}
	d.State = hs.Sum()

	return d
}
