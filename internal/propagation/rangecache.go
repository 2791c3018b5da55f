package propagation

// RangeKeyer is implemented by models whose full parameter set can be
// captured as a comparable value. SharedRangeCache uses the key to
// memoize bisections across model *instances*: two simulation runs
// that each construct their own identically-parameterized model hit
// the same cache line. A model returns ok=false when its parameters
// cannot be captured comparably (e.g. it wraps an unkeyable model);
// such queries are computed directly, which is still deterministic.
type RangeKeyer interface {
	RangeKey() (key any, ok bool)
}

// sharedRangeKey identifies one RangeFor query against one model
// parameter set. model holds the RangeKey value; float arguments are
// stored verbatim from the caller, so equality is a tag check on
// assigned values, never a comparison of recomputed floats.
type sharedRangeKey struct {
	model                       any
	txDBm, thresholdDBm, lo, hi float64
}

// SharedRangeCache memoizes RangeFor across models, keyed on each
// model's RangeKey. It is not bound to a single model instance, so one
// cache can serve every run a sweep worker executes — the bisection
// for a radio parameter set is paid once per worker, not once per
// replication.
//
// The cache only ever grows and is read with point lookups (never
// iterated), so reuse cannot perturb results. It is NOT safe for
// concurrent use: each sweep worker owns exactly one.
type SharedRangeCache struct {
	m map[sharedRangeKey]float64
}

// NewSharedRangeCache returns an empty cross-model cache.
func NewSharedRangeCache() *SharedRangeCache {
	return &SharedRangeCache{m: make(map[sharedRangeKey]float64)}
}

// RangeFor returns the memoized equivalent of
// propagation.RangeFor(m, txDBm, thresholdDBm, lo, hi), computing and
// caching on miss. Models that do not implement RangeKeyer (or whose
// key is not capturable) are computed directly without caching.
func (c *SharedRangeCache) RangeFor(m Model, txDBm, thresholdDBm, lo, hi float64) float64 {
	rk, ok := m.(RangeKeyer)
	if !ok {
		return RangeFor(m, txDBm, thresholdDBm, lo, hi)
	}
	key, ok := rk.RangeKey()
	if !ok {
		return RangeFor(m, txDBm, thresholdDBm, lo, hi)
	}
	k := sharedRangeKey{key, txDBm, thresholdDBm, lo, hi}
	if r, hit := c.m[k]; hit {
		return r
	}
	r := RangeFor(m, txDBm, thresholdDBm, lo, hi)
	c.m[k] = r
	return r
}
