package main

import (
	"strings"
	"testing"
)

// Arguments that name no run are rejected with exit status 2 before
// the run starts, and nothing is printed: a negative -duration used to
// panic in the kernel, and so did out-of-range values of the arena
// flags, which are gone.
func TestBadArgumentsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-duration", "-1"},
		{"-duration", "NaN"},
		{"-duration", "+Inf"},
		{"-duration", "-Inf"},
		{"-nodes", "3"},
		{"-no-such-flag"},
	} {
		var out strings.Builder
		if code := run(args, &out); code != 2 {
			t.Errorf("%v: exit status %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before rejecting", args, out.String())
		}
	}
}
