#!/bin/sh
# Checks that the working tree produces the same bytes as <rev>: the
# simfuzz sweep, the wmansim CSV, and every exact count of the traced
# benchmark on the four in-process workloads (serve_mix is left out: its
# exact counts race between its two HTTP clients). Prints one line per
# check and exits non-zero on any difference; where the simfuzz or
# wmansim output differs, it prints the first lines of their diff.
#
#   scripts/samebytes.sh HEAD
#
# <rev> is exported with git archive into a temporary directory, so an
# interrupted run leaves nothing behind in the repository.
set -u
rev=${1:?usage: scripts/samebytes.sh <rev>}
root=$(cd "$(dirname "$0")/.." && pwd) || exit 2
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir "$tmp/rev" "$tmp/base" "$tmp/work"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev" || exit 2
(cd "$tmp/rev" && go build -o "$tmp/base/" ./cmd/simfuzz ./cmd/wmansim ./bench) || exit 2
(cd "$root" && go build -o "$tmp/work/" ./cmd/simfuzz ./cmd/wmansim ./bench) || exit 2

workloads="flood_dense route_unicast churn_mobile arena_cold"
for side in base work; do
	bin=$tmp/$side
	"$bin/simfuzz" -seeds 1:300 -v >"$bin/simfuzz.txt"
	"$bin/wmansim" -exp all -seeds 1 -duration 5 -csv >"$bin/wmansim.txt"
	for w in $workloads; do
		"$bin/bench" -trace 1 -workload "$w" -seconds 1 -out "$bin/$w" >/dev/null
	done
done

status=0
md5() { md5sum <"$1" | cut -c1-32; }
for f in simfuzz wmansim; do
	if cmp -s "$tmp/base/$f.txt" "$tmp/work/$f.txt"; then
		echo "same     $f $(md5 "$tmp/work/$f.txt")"
	else
		echo "DIFFERS  $f $(md5 "$tmp/base/$f.txt") -> $(md5 "$tmp/work/$f.txt"):"
		(cd "$tmp" && diff base/$f.txt work/$f.txt | head -n 20)
		status=1
	fi
done
for w in $workloads; do
	if "$tmp/work/bench" -compare "$tmp/base/$w/result_trace.json" "$tmp/work/$w/result_trace.json" >"$tmp/$w.cmp"; then
		echo "same     bench $w exact counts"
	else
		echo "DIFFERS  bench $w exact counts:"
		grep -v ' same$' "$tmp/$w.cmp"
		status=1
	fi
done
exit $status
