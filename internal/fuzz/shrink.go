package fuzz

import "routeless/internal/scenario"

// The shrinking reducer: given a failing scenario and a predicate that
// re-checks failure, greedily apply size-reducing moves until no move
// keeps the scenario failing. The result is the minimal reproducer that
// goes into the replay fixture — a human debugs N=4 for two simulated
// seconds, not N=60 for eight.
//
// Determinism and termination are both structural. Moves are tried in
// one fixed order; the first accepted move restarts the pass; every
// move strictly decreases an integer cost bounded below by zero, so the
// loop terminates, and with a deterministic predicate the whole
// reduction is a pure function of its input. Cost is integral on
// purpose: float comparisons here would reopen exactly the epsilon
// ambiguity the repo's lint rules exist to keep out.

// cost is the scenario's integer size: the lexicographic-free weighted
// sum the shrinker minimizes. Duration is counted in 0.5 s halves (the
// generator's quantum), so every move below maps to a positive integer
// decrease.
func cost(sc scenario.Scenario) int {
	c := sc.N * 1000
	c += int(sc.Duration*2) * 50
	c += len(sc.Flows) * 20
	c += len(sc.Faults) * 20
	if sc.Mobility != nil {
		c += 10 + sc.Mobility.Movers
	}
	if sc.Fading {
		c += 10
	}
	if sc.Tiles > 1 {
		c += 10
	}
	if sc.Connected {
		c += 1
	}
	return c
}

// clampToN drops flows referencing nodes at or beyond n and clamps the
// mobility head-set, so node-count moves always yield valid scenarios.
func clampToN(sc scenario.Scenario, n int) scenario.Scenario {
	sc.N = n
	var flows []scenario.Flow
	for _, f := range sc.Flows {
		if f.Src < n && f.Dst < n {
			flows = append(flows, f)
		}
	}
	sc.Flows = flows
	if sc.Mobility != nil && sc.Mobility.Movers > n {
		m := *sc.Mobility
		m.Movers = n
		sc.Mobility = &m
	}
	return sc
}

// moves returns the candidate reductions of sc, most aggressive first
// within each axis: drop whole fault specs, drop flows, halve then
// decrement duration, halve then decrement N, switch off mobility /
// fading / tiling / the connectivity requirement.
func moves(sc scenario.Scenario) []scenario.Scenario {
	var out []scenario.Scenario

	for i := range sc.Faults {
		c := sc
		c.Faults = append(append([]scenario.FaultSpec(nil), sc.Faults[:i]...), sc.Faults[i+1:]...)
		out = append(out, c)
	}
	for i := range sc.Flows {
		c := sc
		c.Flows = append(append([]scenario.Flow(nil), sc.Flows[:i]...), sc.Flows[i+1:]...)
		out = append(out, c)
	}

	// Duration moves, quantized to the generator's 0.5 s grid with a
	// 0.5 s floor.
	if h := quantHalves(sc.Duration); h > 1 {
		if half := h / 2; half < h {
			c := sc
			c.Duration = float64(maxInt(half, 1)) * 0.5
			out = append(out, c)
		}
		c := sc
		c.Duration = float64(h-1) * 0.5
		out = append(out, c)
	}

	// Node-count moves keep N >= 2 (the smallest network that can carry
	// a flow).
	if sc.N > 2 {
		if half := sc.N / 2; half >= 2 && half < sc.N {
			out = append(out, clampToN(sc, half))
		}
		out = append(out, clampToN(sc, sc.N-1))
	}

	if sc.Mobility != nil {
		c := sc
		c.Mobility = nil
		out = append(out, c)
	}
	if sc.Fading {
		c := sc
		c.Fading = false
		out = append(out, c)
	}
	if sc.Tiles > 1 {
		c := sc
		c.Tiles = 0
		out = append(out, c)
	}
	if sc.Connected {
		c := sc
		c.Connected = false
		out = append(out, c)
	}
	return out
}

func quantHalves(d float64) int {
	h := int(d * 2)
	if h < 1 {
		h = 1
	}
	return h
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Shrink minimizes a failing scenario. failing must return true for sc
// itself (callers pass the predicate that just flagged it); the result
// is the smallest scenario reachable by the move set on which failing
// still returns true, along with how many candidate evaluations the
// reduction spent. maxEvals bounds predicate calls (each one is a full
// double simulation when driven by a Runner); 0 means 1000.
func Shrink(sc scenario.Scenario, failing func(scenario.Scenario) bool, maxEvals int) (scenario.Scenario, int) {
	if maxEvals <= 0 {
		maxEvals = 1000
	}
	evals := 0
	for {
		improved := false
		for _, cand := range moves(sc) {
			if cost(cand) >= cost(sc) {
				continue
			}
			if evals >= maxEvals {
				return sc, evals
			}
			evals++
			if failing(cand) {
				sc = cand
				improved = true
				break // restart the pass from the smaller scenario
			}
		}
		if !improved {
			return sc, evals
		}
	}
}
