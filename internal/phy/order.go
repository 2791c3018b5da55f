package phy

import "math/bits"

// idBits orders the id lists the channel takes from its spatial grid:
// one bit per node in words, ⌈n/64⌉ of them, and one bit per word in
// summary, set while that word has a bit set — all zero between calls.
// A grid query returns distinct ids in cell order; marking them and
// reading them back through the summary yields them ascending with no
// comparison. The summary keeps the read-back off the span between the
// lowest and highest id, which on a large uniform arena is the whole
// field: it visits one summary word per 4 096 ids of span and then only
// the words that hold an id.
type idBits struct {
	words, summary []uint64
}

// newIDBits returns a clear idBits for ids below n.
func newIDBits(n int) idBits {
	return idBits{words: make([]uint64, (n+63)/64), summary: make([]uint64, (n+4095)/4096)}
}

// sort puts ids — distinct, each below the n b was made for — in
// ascending order in place, and leaves b all zero again.
func (b idBits) sort(ids []int) {
	if len(ids) < 2 {
		return
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids {
		b.words[id>>6] |= 1 << (id & 63)
		b.summary[id>>12] |= 1 << (id >> 6 & 63)
		lo, hi = min(lo, id), max(hi, id)
	}
	n := 0
	for s := lo >> 12; s <= hi>>12; s++ {
		set := b.summary[s]
		b.summary[s] = 0
		for ; set != 0; set &= set - 1 {
			w := s<<6 | bits.TrailingZeros64(set)
			word := b.words[w]
			b.words[w] = 0
			for ; word != 0; word &= word - 1 {
				ids[n] = w<<6 | bits.TrailingZeros64(word)
				n++
			}
		}
	}
}

// keySorter sorts buildLinks' firing-order keys, delay<<32|i with delay
// a non-negative float32's bits, without a comparison sort: a stable
// counting pass on the high half into the next power of two ≥ k buckets
// spanning [min, max], then an insertion pass on the whole key for the
// few keys that share a bucket. Its buffers are reused across calls.
type keySorter struct {
	out    []uint64
	counts []int32
}

// sort returns keys in ascending order, in a buffer valid until the next
// call; keys itself is left as it was.
func (s *keySorter) sort(keys []uint64) []uint64 {
	k := len(keys)
	if k < 2 {
		return keys
	}
	lo, hi := uint32(keys[0]>>32), uint32(keys[0]>>32)
	for _, key := range keys[1:] {
		lo, hi = min(lo, uint32(key>>32)), max(hi, uint32(key>>32))
	}
	// Bucket (h-lo)>>shift is monotone in h and below 2^⌈log2 k⌉.
	shift := max(bits.Len32(hi-lo)-bits.Len(uint(k-1)), 0)
	nb := int((hi-lo)>>shift) + 1
	if cap(s.counts) < nb+1 {
		s.counts = make([]int32, nb+1, max(nb+1, 2*cap(s.counts)))
	}
	counts := s.counts[:nb+1]
	clear(counts)
	for _, key := range keys {
		counts[(uint32(key>>32)-lo)>>shift+1]++
	}
	for b := 1; b < nb; b++ {
		counts[b] += counts[b-1]
	}
	if cap(s.out) < k {
		s.out = make([]uint64, k, max(k, 2*cap(s.out)))
	}
	out := s.out[:k]
	for _, key := range keys {
		b := (uint32(key>>32) - lo) >> shift
		out[counts[b]] = key
		counts[b]++
	}
	for i := 1; i < k; i++ {
		key, j := out[i], i
		for ; j > 0 && key < out[j-1]; j-- {
			out[j] = out[j-1]
		}
		out[j] = key
	}
	return out
}
