#!/bin/sh
# Non-test Go lines outside the linter and the frozen benchmark: the
# number ROADMAP's "deletion is budgeted" contract is counted in. Run
# from anywhere; prints one integer.
cd "$(dirname "$0")/.." || exit 1
find . -name '*.go' ! -name '*_test.go' ! -path './internal/lint/*' ! -path './bench/*' -print0 |
	xargs -0 cat | wc -l
