package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// A stdlib-only reader for the gzipped profile.proto that runtime/pprof
// writes: just enough of the wire format (varints and length-delimited
// fields of Profile, Sample, Location, Line and Function) to recover
// each sample's stack as function names, so CPU time can be bucketed by
// package without depending on the pprof module.

// cpuSample is one sampled stack, leaf first, and how often it was hit.
type cpuSample struct {
	stack []string
	count int64
}

var errProto = errors.New("pprof: malformed profile")

// varint decodes one base-128 varint from the front of b.
func varint(b []byte) (v uint64, rest []byte, err error) {
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// fields calls fn for every field of one message: the varint value for
// wire type 0, the payload for wire type 2. Fixed-width fields are
// skipped; profile.proto has none the reader needs.
func fields(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, rest, err := varint(b)
		if err != nil {
			return err
		}
		b = rest
		var v uint64
		var payload []byte
		switch key & 7 {
		case 0:
			if v, b, err = varint(b); err != nil {
				return err
			}
		case 1, 5:
			n := 8
			if key&7 == 5 {
				n = 4
			}
			if len(b) < n {
				return errProto
			}
			b = b[n:]
			continue
		case 2:
			var n uint64
			if n, b, err = varint(b); err != nil {
				return err
			}
			if n > uint64(len(b)) {
				return errProto
			}
			payload, b = b[:n], b[n:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, payload); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends the values of a repeated integer field, which
// arrives packed (payload) or one value at a time (v).
func repeated(dst []uint64, v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, rest, err := varint(payload)
		if err != nil {
			return nil, err
		}
		dst, payload = append(dst, x), rest
	}
	return dst, nil
}

// readProfile decodes a gzipped CPU profile into its samples.
func readProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string-table index
		table     []string
	)
	err = fields(raw, func(num int, _ uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(msg, func(num int, v uint64, p []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = repeated(s.locs, v, p)
				case 2:
					s.values, err = repeated(s.values, v, p)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(msg, func(num int, v uint64, p []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(p, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			table = append(table, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errProto
		}
		cs := cpuSample{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(table)) {
					return nil, errProto
				}
				cs.stack = append(cs.stack, table[idx])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// funcPackage returns the import path of a symbol as pprof names it:
// "routeless/internal/sim.(*Kernel).Step" → "routeless/internal/sim".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // type arguments may hold paths
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// gcRoots are the runtime entry points under which a sample is garbage
// collection, whatever its leaf.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// cpuShares buckets samples into percent of the profile per layer: gc
// if the stack runs under a collector entry point, else the leaf
// function's package when it is one of layers, else other.
func cpuShares(samples []cpuSample, layers []string) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		if len(s.stack) == 0 {
			continue
		}
		bucket := "other"
		pkg := funcPackage(s.stack[0])
		if rest, ok := strings.CutPrefix(pkg, "routeless/internal/"); ok && slices.Contains(layers, rest) {
			bucket = rest
		}
		if slices.ContainsFunc(s.stack, func(fn string) bool { return slices.Contains(gcRoots, fn) }) {
			bucket = "gc"
		}
		counts[bucket] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for b, c := range counts {
		shares[b] = 100 * float64(c) / float64(total)
	}
	return shares
}
