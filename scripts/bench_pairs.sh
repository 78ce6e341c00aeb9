#!/usr/bin/env bash
# Alternating parent/change ddbench pairs: the comparison every performance
# claim in CHANGES.md rests on (one run each says nothing on a box whose speed
# moves ±25 % between minutes).
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED0 PAIRS SECONDS
#
# PARENT_DIR and CHANGE_DIR are two checkouts (`git clone` the parent commit
# somewhere outside the tree); each side is built and run by its own
# bench/run.sh, tracing off. Pair i runs both sides at seed SEED0+i, the
# parent first on even pairs and the change first on odd ones. Output: one
# line per run, then per end-to-end metric of CHANGE_DIR's BENCHMARK.json the
# median [first–third quartile] of each side (the exclusive method, as
# ddbench calibrate and the driver compute it) and how many pairs the change
# won — better in the metric's direction; ties (equal to nine digits) count
# for neither.
# Exits non-zero if any run failed an operation or did not report.
set -euo pipefail

if [ $# -ne 6 ]; then
	sed -n '2,17p' "$0" >&2
	exit 2
fi
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd)
workload=$3 seed0=$4 pairs=$5 seconds=$6

# "name better" per end-to-end metric: the entries that carry a bound.
metrics=$(sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound".*/\1 \2/p' "$change/BENCHMARK.json")
[ -n "$metrics" ] || { echo "no end-to-end metrics in $change/BENCHMARK.json" >&2; exit 2; }

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
bad=0

# one SIDE DIR PAIR SEED: runs the benchmark, prints and records its metrics.
one() {
	local side=$1 dir=$2 pair=$3 seed=$4 last line attempted failed
	last=$(bash "$dir/bench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1) || last=
	attempted=$(sed -n 's/.*"attempted":\([0-9]*\).*/\1/p' <<<"$last")
	failed=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$last")
	if [ -z "$attempted" ] || [ "$failed" != 0 ]; then
		echo "pair $pair $side seed $seed: no clean result (failed ${failed:-?} of ${attempted:-?})" >&2
		bad=1
		return
	fi
	line="pair $pair $side seed $seed"
	while read -r name _; do
		v=$(sed -n "s/.*\"$name\":{\"value\":\([^,}]*\).*/\1/p" <<<"$last")
		[ -n "$v" ] || { echo "pair $pair $side: no $name in the result line" >&2; bad=1; return; }
		echo "$name $side $pair $v" >>"$runs"
		line+=" $name=$v"
	done <<<"$metrics"
	echo "$line failed=$failed/$attempted"
}

for ((i = 0; i < pairs; i++)); do
	seed=$((seed0 + i))
	if ((i % 2 == 0)); then
		one parent "$parent" "$i" "$seed"
		one change "$change" "$i" "$seed"
	else
		one change "$change" "$i" "$seed"
		one parent "$parent" "$i" "$seed"
	fi
done

echo
echo "# $workload, $pairs pairs from seed $seed0, ${seconds}s runs: parent -> change, median [q1-q3]"
while read -r name better; do
	awk -v name="$name" -v better="$better" '
	function cut(s, n, i,    m, j, d) { # statistics.quantiles(n=4), exclusive
		if (n < 2) return s[1]
		m = n + 1; j = int(i * m / 4)
		if (j < 1) j = 1
		if (j > n - 1) j = n - 1
		d = i * m - j * 4
		return (s[j] * (4 - d) + s[j + 1] * d) / 4
	}
	function summary(v, n,    s, i, j, t) {
		for (i = 1; i <= n; i++) s[i] = v[i]
		for (i = 2; i <= n; i++) for (j = i; j > 1 && s[j] < s[j-1]; j--) { t = s[j]; s[j] = s[j-1]; s[j-1] = t }
		return sprintf("%.6g [%.6g-%.6g]", cut(s, n, 2), cut(s, n, 1), cut(s, n, 3))
	}
	$1 == name { if ($2 == "parent") { p[$3] = $4; pv[++np] = $4 } else { c[$3] = $4; cv[++nc] = $4 } }
	END {
		for (k in p) if (k in c) {
			both++
			d = c[k] - p[k]; if (d < 0) d = -d
			if (d <= 1e-9 * (p[k] < 0 ? -p[k] : p[k])) ties++ # equal but for the last printed digit
			else if ((better == "higher") == (c[k] > p[k])) wins++
		}
		printf "%-20s %s -> %s   change wins %d/%d, ties %d (%s is better)\n", name, summary(pv, np), summary(cv, nc), wins, both, ties, better
	}' "$runs"
done <<<"$metrics"

exit "$bad"
