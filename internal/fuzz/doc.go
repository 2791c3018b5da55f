// Package fuzz is the conservation-law scenario fuzzer: a seed-driven
// generator of whole simulation scenarios — topology, mobility, traffic
// mix, and a list of fault specs — run under the simulator's free test
// oracle (the metrics conservation laws plus bitwise seed determinism),
// with a shrinking reducer that minimizes any failing scenario to its
// smallest still-failing form and emits it as a replayable JSON
// fixture.
//
// The package tells two failure classes apart, and that distinction is
// the whole point: an *invalid scenario* (a fault spec fault.Validate
// rejects, a placement that cannot connect) is the generator's or the
// user's problem and is reported as a value; everything else that goes
// wrong — a conservation-law imbalance, a run that does not
// bitwise-reproduce under its own seed, a panic from inside the
// simulator — is a simulator bug. Every
// crash-instead-of-error path the fuzzer trips therefore has to be
// converted to a structured verdict first; that conversion is the
// repo's Scenario.Validate (with fault.Validate inside) / node.New /
// fault.Install error plumbing.
//
// Determinism contract: a Scenario is a pure value; Generate(seed) is a
// pure function of the seed drawing only from rng.StreamFuzz children;
// Run derives every simulation stream from Scenario.Seed. The bounded
// fuzz driver (cmd/simfuzz -seeds) therefore produces the identical
// verdict list on every invocation.
package fuzz
