package main

import (
	"fmt"
	"math"
	"slices"
)

// metric is one named number of a result: the median of its samples
// with their quartiles and range, or a single measurement (N=1, all
// five equal).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// values collects a run's numbers by name before they are checked
// against the declared metric tables.
type values map[string]metric

// set records one measurement.
func (v values) set(name string, x float64) {
	v[name] = metric{Name: name, Value: x, Q1: x, Q3: x, Min: x, Max: x, N: 1}
}

// median records the median of xs with its range and sample count.
func (v values) median(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	v.spread(name, median(xs), xs)
}

// spread records value with the quartiles and range of xs.
func (v values) spread(name string, value float64, xs []float64) {
	q1, q3 := quartiles(xs)
	v[name] = metric{Name: name, Value: value, Q1: q1, Q3: q3, Min: slices.Min(xs), Max: slices.Max(xs), N: len(xs)}
}

// tail records the q-th percentile of xs under the ten-beyond rule;
// with too few samples the metric is left unset.
func (v values) tail(name string, xs []float64, q float64) {
	if p, err := percentile(xs, q); err == nil {
		v.spread(name, p, xs)
	}
}

// column extracts one figure from every cycle.
func column[T any](cycles []T, f func(T) float64) []float64 {
	out := make([]float64, len(cycles))
	for i, c := range cycles {
		out[i] = f(c)
	}
	return out
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the method the benchmark driver
// takes spreads with); a single sample is both.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1)-4*j) / 4
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// percentile returns the q-th quantile (0.5 < q < 1) of xs by nearest
// rank. A tail percentile is reported only when at least ten samples
// lie beyond it, so p90 needs 100 samples and p99 needs 1000.
func percentile(xs []float64, q float64) (float64, error) {
	if !(q > 0.5 && q < 1) {
		return 0, fmt.Errorf("percentile %g outside (0.5, 1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if n-rank < 10 {
		return 0, fmt.Errorf("p%g needs at least ten samples beyond it, have %d of %d", q*100, max(n-rank, 0), n)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}
