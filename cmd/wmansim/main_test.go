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
