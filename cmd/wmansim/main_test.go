package main

import "testing"

// A replication count below one leaves no seed to run: it is rejected
// with a message and exit status 2, like an unknown -scale, before any
// study is built.
func TestSeedsBelowOneRejected(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		if code := run([]string{"-exp", "fig1", "-seeds", n}); code != 2 {
			t.Errorf("-seeds %s: exit status %d, want 2", n, code)
		}
	}
}

// A negative, NaN or infinite traffic window is rejected with exit
// status 2 before any study is built: -1 used to panic in the kernel,
// NaN printed tables of zeros, and +Inf never finished.
func TestDurationOutOfRangeRejected(t *testing.T) {
	for _, d := range []string{"-1", "NaN", "+Inf", "-Inf"} {
		if code := run([]string{"-exp", "fig1", "-seeds", "1", "-duration", d}); code != 2 {
			t.Errorf("-duration %s: exit status %d, want 2", d, code)
		}
	}
}
