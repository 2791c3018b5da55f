package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime/debug"

	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/scenario"
	"routeless/internal/snapshot"
)

// Verdicts, from least to most alarming. Everything except
// VerdictInvalid past validation is a simulator bug.
const (
	// VerdictPass: the run satisfied every conservation law and
	// reproduced bitwise under its own seed.
	VerdictPass = "pass"
	// VerdictInvalid: the scenario failed validation or construction
	// (e.g. no connected placement exists). Not a bug — generated
	// scenarios with this verdict are skipped, hand-written ones
	// rejected.
	VerdictInvalid = "invalid-scenario"
	// VerdictViolation: a conservation law or invariant failed after
	// the run — packets or signals were created or destroyed off the
	// books.
	VerdictViolation = "invariant-violation"
	// VerdictDivergence: the same scenario produced two different
	// metric snapshots under the same seed — the determinism contract
	// is broken. The snapshot cross-check mode reports restore
	// divergence (a restored run drifting from its uninterrupted twin)
	// under the same verdict: both are the one contract failing.
	VerdictDivergence = "determinism-divergence"
	// VerdictPanic: the simulator crashed instead of reporting an
	// error.
	VerdictPanic = "panic"
)

// Result is one scenario's structured verdict.
type Result struct {
	Verdict string `json:"verdict"`
	// Detail explains non-pass verdicts: the validation error, the
	// first violation, the panic value with stack, or the divergence
	// site.
	Detail string `json:"detail,omitempty"`
	// Violations carries the full structured oracle output on
	// invariant-violation verdicts.
	Violations []metrics.Violation `json:"violations,omitempty"`
	// Metrics carries the run's paper-unit outcome on pass verdicts.
	Metrics *scenario.RunMetrics `json:"metrics,omitempty"`
}

// Failed reports whether the verdict indicates a simulator bug
// (anything but pass and invalid-scenario).
func (r Result) Failed() bool {
	return r.Verdict != VerdictPass && r.Verdict != VerdictInvalid
}

// Runner executes scenarios under the oracle. The zero value is ready
// to use.
type Runner struct {
	// Sabotage, when non-nil, runs after the simulation drains and
	// before the oracle collects, with the run index (0 = first run,
	// 1 = determinism re-run). It exists so tests can plant each
	// failure class — corrupt a counter for a violation, corrupt only
	// run 1 for a divergence, panic for a crash — without needing a
	// real simulator bug on hand.
	Sabotage func(run int, nw *node.Network)
}

// Run executes the scenario under the full oracle: validate, run once
// under CheckInvariants, then re-run under the same seed and compare
// metric snapshots byte for byte.
func (r *Runner) Run(sc scenario.Scenario) Result {
	if err := sc.Validate(); err != nil {
		return Result{Verdict: VerdictInvalid, Detail: err.Error()}
	}
	first := r.runOnce(sc, 0)
	if first.panicMsg != "" {
		return Result{Verdict: VerdictPanic, Detail: first.panicMsg}
	}
	if first.buildErr != nil {
		// Construction refused the validated scenario — an impossible
		// placement, typically. The scenario, not the simulator, is at
		// fault, and the structured error path is working as designed.
		return Result{Verdict: VerdictInvalid, Detail: first.buildErr.Error()}
	}
	if len(first.violations) > 0 {
		return Result{
			Verdict:    VerdictViolation,
			Detail:     first.violations[0].String(),
			Violations: first.violations,
		}
	}
	second := r.runOnce(sc, 1)
	switch {
	case second.panicMsg != "":
		return Result{Verdict: VerdictDivergence,
			Detail: "re-run panicked where first run completed: " + second.panicMsg}
	case second.buildErr != nil:
		return Result{Verdict: VerdictDivergence,
			Detail: "re-run failed construction where first run completed: " + second.buildErr.Error()}
	case len(second.violations) > 0:
		return Result{Verdict: VerdictDivergence,
			Detail: "re-run violated invariants where first run was clean: " + second.violations[0].String()}
	case !bytes.Equal(first.snap, second.snap):
		return Result{Verdict: VerdictDivergence,
			Detail: fmt.Sprintf("metric snapshots differ between same-seed runs (%d vs %d bytes)",
				len(first.snap), len(second.snap))}
	}
	m := first.metrics
	return Result{Verdict: VerdictPass, Metrics: &m}
}

// onceOut is one simulation attempt's raw outcome.
type onceOut struct {
	snap       []byte // final metric snapshot, canonical JSON
	metrics    scenario.RunMetrics
	violations []metrics.Violation
	buildErr   error
	panicMsg   string
}

// runOnce builds and runs the scenario once through scenario.Build,
// converting any panic into a value. The build path goes through the
// error-returning node.New / fault.Install constructors, and Install
// refuses exactly the fault specs Validate refuses (both run
// fault.Validate), so only genuine simulator bugs can still reach the
// recover.
func (r *Runner) runOnce(sc scenario.Scenario, runIdx int) (out onceOut) {
	defer func() {
		if p := recover(); p != nil {
			out.panicMsg = fmt.Sprintf("%v\n%s", p, debug.Stack())
		}
	}()

	run, err := scenario.Build(sc)
	if err != nil {
		out.buildErr = err
		return
	}
	if err := run.AdvanceTo(run.End()); err != nil {
		out.buildErr = err
		return
	}

	nw := run.Network()
	if r.Sabotage != nil {
		r.Sabotage(runIdx, nw)
	}

	rm, _ := run.Finish()
	out.metrics = rm
	out.violations = nw.Metrics.Violations()
	b, merr := json.Marshal(nw.Metrics.Snapshot())
	if merr != nil {
		panic(merr) // a snapshot that cannot encode is itself a bug
	}
	out.snap = b
	return
}

// RunSnapshot executes the scenario under the checkpoint cross-check
// oracle: run uninterrupted to the end; then run a twin to T (half the
// run), Save, Load (which replays and verifies every state digest), and
// continue the restored run to the end. Any Load failure or any byte of
// difference between the two final metric snapshots is a
// determinism-divergence: the snapshot contract — "run 2T" ≡ "run T,
// snapshot, restore, run T" — is broken.
func (r *Runner) RunSnapshot(sc scenario.Scenario) Result {
	if err := sc.Validate(); err != nil {
		return Result{Verdict: VerdictInvalid, Detail: err.Error()}
	}
	full := r.runOnce(sc, 0)
	if full.panicMsg != "" {
		return Result{Verdict: VerdictPanic, Detail: full.panicMsg}
	}
	if full.buildErr != nil {
		return Result{Verdict: VerdictInvalid, Detail: full.buildErr.Error()}
	}
	if len(full.violations) > 0 {
		return Result{
			Verdict:    VerdictViolation,
			Detail:     full.violations[0].String(),
			Violations: full.violations,
		}
	}
	snap, err := r.snapshotOnce(sc)
	if err != nil {
		return Result{Verdict: VerdictDivergence,
			Detail: "snapshot/restore diverged where the uninterrupted run was clean: " + err.Error()}
	}
	if !bytes.Equal(full.snap, snap) {
		return Result{Verdict: VerdictDivergence,
			Detail: fmt.Sprintf("restored run's final metrics differ from the uninterrupted run (%d vs %d bytes)",
				len(full.snap), len(snap))}
	}
	m := full.metrics
	return Result{Verdict: VerdictPass, Metrics: &m}
}

// snapshotOnce runs to the midpoint, checkpoints, restores, finishes
// the restored run, and returns its final metric snapshot bytes.
func (r *Runner) snapshotOnce(sc scenario.Scenario) (snapBytes []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic during snapshot cross-check: %v\n%s", p, debug.Stack())
		}
	}()

	run, err := scenario.Build(sc)
	if err != nil {
		return nil, err
	}
	mid := run.End() / 2
	if err := run.AdvanceTo(mid); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, run); err != nil {
		return nil, err
	}
	restored, err := snapshot.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	if _, err := restored.Finish(); err != nil {
		return nil, fmt.Errorf("restored run violated invariants: %w", err)
	}
	b, merr := json.Marshal(restored.Network().Metrics.Snapshot())
	if merr != nil {
		panic(merr)
	}
	return b, nil
}
