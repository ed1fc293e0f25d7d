#!/usr/bin/env bash
# Compares the benchmark of two checkouts of this repository on one
# host. For every workload in BENCHMARK.json it runs seed-matched pairs
# of `bash perfbench/run.sh --trace 0`, alternating which side goes
# first, with the same --seconds on both sides. It then compares the
# base and head medians of every end-to-end metric.
#
#   bash .github/perf-gate.sh BASE_DIR HEAD_DIR PAIRS SECONDS OUT_DIR
#
# BENCHMARK.json is read from HEAD_DIR. The raw result lines go to
# OUT_DIR/results.jsonl, one per run, and each run's stderr to
# OUT_DIR/logs/. The gate exits 1 when
#   - any run fails to report a result or reports "correct": false,
#   - head's failed/attempted share on a workload is above base's,
#   - a head median is worse than the base median by more than TOL.
# A metric whose base spread (IQR / median) is above TOL cannot tell a
# TOL change from noise: it is reported as UNRESOLVED, neither passed
# nor failed. The verdict lines are also written to OUT_DIR/report.txt.
set -euo pipefail

if [ $# -ne 5 ]; then
	echo "usage: $0 BASE_DIR HEAD_DIR PAIRS SECONDS OUT_DIR" >&2
	exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
pairs=$3
seconds=$4
mkdir -p "$5/logs"
out=$(cd "$5" && pwd)
bench="$head/BENCHMARK.json"
# The tolerance of the care-bench -perf step this gate replaced; it is
# tighter than every bound in BENCHMARK.json.
TOL=0.10

results="$out/results.jsonl"
: >"$results"

# run SIDE DIR WORKLOAD SEED appends one result line.
run() {
	local side=$1 dir=$2 wl=$3 seed=$4 line
	echo "perf-gate: $wl seed $seed $side" >&2
	line=$(cd "$dir" && bash perfbench/run.sh --workload "$wl" --seed "$seed" \
		--seconds "$seconds" --trace 0 2>"$out/logs/$wl-$seed-$side.log" | tail -n 1) || true
	if ! jq -e 'type == "object" and has("correct")' <<<"$line" >/dev/null 2>&1; then
		line='{"correct": false, "attempted": 0, "failed": 0, "metrics": {}, "no_result": true}'
	fi
	jq -c --arg side "$side" --arg wl "$wl" --argjson seed "$seed" \
		'{side: $side, workload: $wl, seed: $seed} + .' <<<"$line" >>"$results"
}

for wl in $(jq -r '.workloads[].name' "$bench"); do
	for seed in $(seq 1 "$pairs"); do
		if [ $((seed % 2)) -eq 1 ]; then
			run base "$base" "$wl" "$seed"
			run head "$head" "$wl" "$seed"
		else
			run head "$head" "$wl" "$seed"
			run base "$base" "$wl" "$seed"
		fi
	done
done

# One report line per check; the last line is the verdict.
jq -r -s --argjson tol "$TOL" --slurpfile bench "$bench" '
	def q($p): sort | ((length - 1) * $p) as $i | ($i | floor) as $lo | ($i | ceil) as $hi
		| .[$lo] + (.[$hi] - .[$lo]) * ($i - $lo);
	def pct: (. * 1000 | round / 10 | tostring) + "%";
	def signed: if . > 0 then "+" + pct elif . < 0 then pct else "0%" end;
	def num: . * 10000 | round / 10000 | tostring;
	. as $runs
	| [ $runs[] | select(.correct != true)
		| "FAIL \(.workload) seed \(.seed) \(.side): " + (if .no_result then "no result line" else "correct: false" end) ]
	+ [ $bench[0].workloads[].name as $wl
		| [$runs[] | select(.workload == $wl)] as $r
		| ( [ "base", "head" ] | map(. as $s | [$r[] | select(.side == $s)]
			| ((map(.failed) | add) / ([(map(.attempted) | add), 1] | max))) ) as [$bf, $hf]
		| ( if $hf > $bf then "FAIL \($wl) failed/attempted \($bf | num) -> \($hf | num)" else empty end ),
		  ( $bench[0].end_to_end[] as $m
			| [$r[] | select(.side == "base") | .metrics[$m.name].value | numbers] as $b
			| [$r[] | select(.side == "head") | .metrics[$m.name].value | numbers] as $h
			| if ($b | length) == 0 or ($h | length) == 0 then "FAIL \($wl) \($m.name): missing"
			  else ($b | q(0.5)) as $bm | ($h | q(0.5)) as $hm
				| (if $bm == 0 then 0 else (($b | q(0.75)) - ($b | q(0.25))) / ($bm | fabs) end) as $spread
				| (if $bm == 0 then (if $hm == $bm then 0 else 1 end)
				   elif $m.better == "higher" then ($bm - $hm) / ($bm | fabs)
				   else ($hm - $bm) / ($bm | fabs) end) as $worse
				| (if $spread > $tol then "UNRESOLVED" elif $worse > $tol then "FAIL" else "pass" end)
				+ " \($wl) \($m.name): base \($bm | num) head \($hm | num) (\(-$worse | signed), \($m.better) is better; base spread \($spread | pct))"
			  end ) ]
	| .[], (if any(.[]; startswith("FAIL")) then "perf-gate: FAIL" else "perf-gate: pass" end)
' "$results" | tee "$out/report.txt"
[ "$(tail -n 1 "$out/report.txt")" = "perf-gate: pass" ]
