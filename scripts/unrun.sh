#!/bin/sh
# Lists the non-test functions that no workload runs, and fails unless
# scripts/unrun.allow explains exactly that list.
#
# It builds wmansim, simfuzz, netviz and bench with coverage and runs
# the scripts/samebytes.sh set (simfuzz -seeds 1:300, wmansim -exp all,
# the four in-process bench workloads at -trace 1) plus bench's
# serve_mix, fig2 with its map, a one-seed journaled mega ladder, a
# scenario document checkpointed and resumed, a fixture replay,
# simfuzz's checkpoint cross-check and netviz's SVG. It merges the
# profiles and prints every function outside internal/lint at 0.0 %
# statement coverage as path:Receiver.Func, then their count on the
# last line. A function whose body is empty on its declaration line
# ({}) is left out: it has no statement to run, and cover reports it at
# 0.0 % whether it was called or not.
#
# Every printed function must have a line in scripts/unrun.allow, and
# every line there must name a printed function. Otherwise the script
# names the missing and the stale entries on stderr and exits 1.
#
#   scripts/unrun.sh
#
# Everything it builds and writes lives in a temporary directory.
set -u
export LC_ALL=C
root=$(cd "$(dirname "$0")/.." && pwd) || exit 2
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT INT TERM

cd "$root" || exit 2
# A binary writes no profile unless its own main package is covered.
for main in cmd/wmansim cmd/simfuzz cmd/netviz bench; do
	go build -cover -coverpkg="routeless/internal/...,routeless/$main" \
		-o "$tmp/bin/" "./$main" || exit 2
done

mkdir "$tmp/cov" || exit 2
run() { GOCOVERDIR=$tmp/cov "$@" >/dev/null || exit 2; }
run "$tmp/bin/simfuzz" -seeds 1:300 -v
run "$tmp/bin/wmansim" -exp all -seeds 1 -duration 5 -csv
run "$tmp/bin/wmansim" -exp fig2 -seeds 1 -duration 5
run "$tmp/bin/wmansim" -exp mega -seeds 1 -duration 3 -csv -journal "$tmp/mega.jsonl"
cat >"$tmp/doc.json" <<'EOF'
{"seed": 7, "n": 12, "width": 400, "height": 300, "range": 150,
 "placement": "uniform", "protocol": "routeless",
 "flows": [{"src": 0, "dst": 11}], "interval": 1, "data_size": 256,
 "duration": 2, "journal_every": 1}
EOF
run "$tmp/bin/wmansim" -scenario "$tmp/doc.json" -snapshot-at 1 -snapshot-out "$tmp/doc.snap"
run "$tmp/bin/wmansim" -restore "$tmp/doc.snap" -journal "$tmp/doc.jsonl"
run "$tmp/bin/simfuzz" -replay internal/fuzz/testdata/crash_double_count.json
run "$tmp/bin/simfuzz" -seeds 1:20 -snapshot
run "$tmp/bin/netviz" -duration 5 -svg "$tmp/fig2.svg"
for w in flood_dense route_unicast churn_mobile arena_cold; do
	run "$tmp/bin/bench" -trace 1 -workload "$w" -seconds 1 -out "$tmp/out/$w"
done
run "$tmp/bin/bench" -workload serve_mix -seconds 1 -out "$tmp/out/serve_mix"

go tool covdata textfmt -i="$tmp/cov" -o "$tmp/cover.out" || exit 2
go tool cover -func="$tmp/cover.out" |
	awk '$1 !~ /^routeless\/internal\/lint\// && $1 != "total:" && $NF == "0.0%" { print $1, $2 }' |
	while read -r loc fn; do
		file=${loc#routeless/}
		file=${file%%:*}
		line=${loc#*:}
		line=${line%%:*}
		sig=$(sed -n "${line}p" "$file")
		case $sig in *'{}') continue ;; esac
		recv=$(printf '%s\n' "$sig" | sed -n 's/^func (\([A-Za-z_0-9]* \)\{0,1\}\**\([A-Za-z_0-9]*\).*/\2./p')
		echo "$file:$recv$fn"
	done >"$tmp/unrun"
cat "$tmp/unrun"
wc -l <"$tmp/unrun" | tr -d ' '

# The allow-list: one "path:Receiver.Func reason" per line; # starts a
# comment line.
sort -u "$tmp/unrun" >"$tmp/unrun.sorted"
grep -v '^#' scripts/unrun.allow | awk 'NF { print $1 }' | sort -u >"$tmp/allow.sorted"
status=0
missing=$(comm -23 "$tmp/unrun.sorted" "$tmp/allow.sorted")
if [ -n "$missing" ]; then
	printf 'unrun.sh: unrun and not in scripts/unrun.allow (run it, delete it, or explain it):\n%s\n' "$missing" >&2
	status=1
fi
stale=$(comm -13 "$tmp/unrun.sorted" "$tmp/allow.sorted")
if [ -n "$stale" ]; then
	printf 'unrun.sh: stale scripts/unrun.allow entries (the function now runs or is gone):\n%s\n' "$stale" >&2
	status=1
fi
bare=$(grep -v '^#' scripts/unrun.allow | awk 'NF == 1 { print $1 }')
if [ -n "$bare" ]; then
	printf 'unrun.sh: scripts/unrun.allow entries without a reason:\n%s\n' "$bare" >&2
	status=1
fi
exit $status
