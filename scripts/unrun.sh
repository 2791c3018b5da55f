#!/bin/sh
# Lists the non-test functions that no workload runs: builds wmansim,
# simfuzz and bench with coverage, runs the scripts/samebytes.sh set
# (simfuzz -seeds 1:300, wmansim -exp all, the four in-process bench
# workloads at -trace 1) plus bench's serve_mix, merges the profiles,
# and prints every function outside internal/lint at 0.0 % statement
# coverage, then their count on the last line.
#
#   scripts/unrun.sh
#
# Everything it builds and writes lives in a temporary directory.
set -u
root=$(cd "$(dirname "$0")/.." && pwd) || exit 2
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT INT TERM

cd "$root" || exit 2
# A binary writes no profile unless its own main package is covered.
for main in cmd/wmansim cmd/simfuzz bench; do
	go build -cover -coverpkg="routeless/internal/...,routeless/$main" \
		-o "$tmp/bin/" "./$main" || exit 2
done

mkdir "$tmp/cov" || exit 2
run() { GOCOVERDIR=$tmp/cov "$@" >/dev/null || exit 2; }
run "$tmp/bin/simfuzz" -seeds 1:300 -v
run "$tmp/bin/wmansim" -exp all -seeds 1 -duration 5 -csv
for w in flood_dense route_unicast churn_mobile arena_cold; do
	run "$tmp/bin/bench" -trace 1 -workload "$w" -seconds 1 -out "$tmp/out/$w"
done
run "$tmp/bin/bench" -workload serve_mix -seconds 1 -out "$tmp/out/serve_mix"

go tool covdata textfmt -i="$tmp/cov" -o "$tmp/cover.out" || exit 2
go tool cover -func="$tmp/cover.out" |
	awk '$1 !~ /^routeless\/internal\/lint\// && $1 != "total:" && $NF == "0.0%"' >"$tmp/unrun"
cat "$tmp/unrun"
wc -l <"$tmp/unrun" | tr -d ' '
