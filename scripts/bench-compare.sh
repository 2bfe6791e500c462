#!/usr/bin/env bash
# Judges a performance claim the way ROADMAP "How a perf claim is judged"
# asks: alternating parent/head runs of the one instrument, never one run.
#
#   scripts/bench-compare.sh BASE WORKLOAD [PAIRS]     (make bench-compare BASE=<sha> W=<workload>)
#
# Checks BASE out into a temporary git worktree, then runs PAIRS (default and
# minimum 6) pairs of
#   bash benchmark/run.sh --workload WORKLOAD --seconds 24 --trace 0 --seed <fresh>
# one in the parent's tree and one in this one, the same seed within a pair,
# alternating which side goes first. Prints every pair, then per end-to-end
# metric the pairs won by head, both medians and both sets of quartiles.
# Last, one full run per side and the benchmark's own -compare table, whose
# exit status is this script's.
#
# Each side builds and runs the benchmark from its own tree, so benchmark/
# and BENCHMARK.json must be identical at BASE and HEAD (checked). Nothing
# under benchmark/ is changed; results land in each tree's benchmark/out/.
#
# PARENT_DIR=<checkout of BASE> reuses an existing checkout (a clone, say)
# in place of the temporary worktree.
set -euo pipefail

usage() { sed -n '2,/^set -euo/{/^set -euo/!s/^# \{0,1\}//p}' "$0" >&2; exit 2; }
[ $# -ge 2 ] || usage
base=$1 workload=$2 pairs=${3:-6}
[ "$pairs" -ge 6 ] || { echo "bench-compare: at least 6 pairs, got $pairs" >&2; exit 2; }

head_dir=$(git rev-parse --show-toplevel)
cd "$head_dir"
base_sha=$(git rev-parse --verify "$base^{commit}")
if ! git diff --quiet "$base_sha" -- benchmark BENCHMARK.json; then
	echo "bench-compare: benchmark/ or BENCHMARK.json differs from $base_sha: the two sides would not run the same instrument" >&2
	exit 2
fi

if [ -n "${PARENT_DIR:-}" ]; then
	parent_dir=$PARENT_DIR
	got=$(git -C "$parent_dir" rev-parse HEAD)
	[ "$got" = "$base_sha" ] || { echo "bench-compare: $parent_dir is at $got, not $base_sha" >&2; exit 2; }
else
	tmp=$(mktemp -d)
	parent_dir=$tmp/parent
	git worktree add --quiet --detach "$parent_dir" "$base_sha"
	trap 'git worktree remove --force "$parent_dir"; rmdir "$tmp"' EXIT
fi

# metric:direction, in BENCHMARK.json's order.
metrics="txn_per_s:higher p50_ms:lower p99_ms:lower cpu_ms_per_txn:lower setup_s:lower"

# run_one DIR SEED prints the five metric values of one driver-mode run on
# one line, in $metrics order.
run_one() {
	local line
	line=$(cd "$1" && bash benchmark/run.sh --workload "$workload" --seconds 24 --trace 0 --seed "$2" | tail -n 1)
	case $line in
	*'"correct":true'*'"failed":0,'*) ;;
	*) echo "bench-compare: run in $1 failed its output check: $line" >&2; return 1 ;;
	esac
	local m out=
	for m in $metrics; do
		out="$out $(printf '%s\n' "$line" | sed -n "s/.*\"${m%%:*}\":{\"value\":\([0-9.eE+-]*\).*/\1/p")"
	done
	echo $out
}

echo "bench-compare: $workload, parent $base_sha vs head $(git rev-parse HEAD)$(git diff --quiet || echo ' (dirty)'), $pairs alternating pairs"
results=$(mktemp)
seed0=$(date +%s)
for i in $(seq 1 "$pairs"); do
	seed=$((seed0 + i))
	if [ $((i % 2)) -eq 1 ]; then order="parent head"; else order="head parent"; fi
	for side in $order; do
		if [ "$side" = parent ]; then dir=$parent_dir; else dir=$head_dir; fi
		echo "$i $seed $side $(run_one "$dir" "$seed")" >>"$results"
	done
	awk -v i="$i" -v metrics="$metrics" '
		$1 == i { for (k = 4; k <= NF; k++) v[$3, k] = $k; seed = $2; first = first ? first : $3 }
		END {
			n = split(metrics, m, " ")
			printf "pair %d (seed %s, %s first):", i, seed, first
			for (k = 1; k <= n; k++) { split(m[k], p, ":"); printf "  %s %.4g -> %.4g", p[1], v["parent", k + 3], v["head", k + 3] }
			printf "\n"
		}' "$results"
done

echo
printf '%-16s %9s  %12s %-30s %12s %s\n' metric "head won" "parent med" "[q1 q2 q3]" "head med" "[q1 q2 q3]"
awk -v metrics="$metrics" '
	# quartiles, cut like Python statistics.quantiles(n=4): the same cut the
	# benchmark uses for its in-run spread.
	function quart(a, n, q,    j, d) {
		j = int(q * (n + 1) / 4); d = q * (n + 1) - 4 * j
		if (j < 1) { j = 1; d = 0 } else if (j > n - 1) { j = n - 1; d = 4 }
		return (a[j] * (4 - d) + a[j + 1] * d) / 4
	}
	function sorted(src, side, k, dst,    n, i, j, t) {
		n = 0
		for (i = 1; i <= pairs; i++) dst[++n] = src[i, side, k]
		for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
		return n
	}
	{ if ($1 > pairs) pairs = $1; for (k = 4; k <= NF; k++) v[$1, $3, k] = $k }
	END {
		nm = split(metrics, m, " ")
		for (k = 1; k <= nm; k++) {
			split(m[k], p, ":"); col = k + 3; won = 0
			for (i = 1; i <= pairs; i++) {
				d = v[i, "head", col] - v[i, "parent", col]
				if ((p[2] == "higher" && d > 0) || (p[2] == "lower" && d < 0)) won++
			}
			n = sorted(v, "parent", col, a); sorted(v, "head", col, b)
			printf "%-16s %5d/%-3d  %12.4g %-30s %12.4g %s\n", p[1], won, pairs,
				quart(a, n, 2), sprintf("[%.4g %.4g %.4g]", quart(a, n, 1), quart(a, n, 2), quart(a, n, 3)),
				quart(b, n, 2), sprintf("[%.4g %.4g %.4g]", quart(b, n, 1), quart(b, n, 2), quart(b, n, 3))
		}
	}' "$results"
rm -f "$results"

# One full run per side, then the benchmark's own verdicts. full_run prints
# the run and leaves the document's path (relative to its tree) in $doc.
full_run() {
	local log
	log=$(mktemp)
	(cd "$1" && bash benchmark/run.sh -seed "$seed0") | tee "$log"
	doc=$(sed -n 's/^wrote //p' "$log")
	rm -f "$log"
	[ -n "$doc" ] || { echo "bench-compare: full run in $1 wrote no document" >&2; exit 1; }
}
echo
echo "bench-compare: full run, parent"
full_run "$parent_dir"
# A temporary worktree is removed on exit: keep the parent's document beside
# the head's.
parent_doc=$head_dir/benchmark/out/parent-$(basename "$doc")
cp "$parent_dir/$doc" "$parent_doc"
echo "bench-compare: full run, head"
full_run "$head_dir"
echo
echo "bench-compare: -compare $parent_doc $head_dir/$doc"
bash benchmark/run.sh -compare "$parent_doc" "$head_dir/$doc"
