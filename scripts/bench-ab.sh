#!/usr/bin/env bash
# Interleaved A/B of one benchmark workload: a base git ref against this
# working tree, as choosing-metrics §8 prescribes for a host whose speed
# drifts (benchmark/README.md). BASE is extracted with git archive into
# .bench_build/ab-base (benchmark/run.sh needs no git), then each pair runs
# the driver's own command line once per side with the pair number as the
# seed, the side that goes first alternating.
# Prints, per end-to-end metric, both sides' quartiles, the ratio of medians,
# the pairs the change won, and whether that is a gain by the rule: at least
# nine tenths of the pairs, and medians further apart than the base's own
# quartiles.
#
#   scripts/bench-ab.sh <base-ref> <workload> [pairs]    (make bench-ab)
set -euo pipefail
base=${1:?usage: bench-ab.sh <base-ref> <workload> [pairs]}
workload=${2:?usage: bench-ab.sh <base-ref> <workload> [pairs]}
pairs=${3:-10}
root=$(git rev-parse --show-toplevel)
cd "$root"
tree="$root/.bench_build/ab-base"
runs="$root/.bench_build/ab-$workload.jsonl"
mkdir -p "$root/.bench_build"
rm -rf "$tree"
mkdir -p "$tree"
git archive "$base" | tar -x -C "$tree"
trap 'rm -rf "$tree"' EXIT
: > "$runs"

# one <side> <dir> <pair>: a failed or incorrect run is recorded, not fatal.
one() {
	local line
	line=$(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" --seconds 15 --trace 0 2>/dev/null | tail -n 1) || true
	[ -n "$line" ] || line='{"correct": false, "failed": 1, "metrics": {}}'
	jq -c --arg side "$1" --argjson pair "$3" \
		'{side: $side, pair: $pair, correct, failed} + (.metrics | map_values(.value))' <<<"$line" | tee -a "$runs"
}
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		one base "$tree" "$i"
		one change "$root" "$i"
	else
		one change "$root" "$i"
		one base "$tree" "$i"
	fi
done

echo
jq -rs --slurpfile spec BENCHMARK.json '
	def quantile(p): sort as $s | ((($s | length) - 1) * p) as $r | ($r | floor) as $i
		| $s[$i] + ($s[[$i + 1, ($s | length) - 1] | min] - $s[$i]) * ($r - $i);
	def side(s): map(select(.side == s)) | sort_by(.pair);
	def r3: . * 1000 | round / 1000;
	side("base") as $b | side("change") as $c
	| (["metric", "better", "base_q1", "base_med", "base_q3", "change_q1", "change_med", "change_q3", "change/base", "wins", "gain"]),
	  ($spec[0].end_to_end[] | . as $m
		| ($b | map(.[$m.name])) as $bv | ($c | map(.[$m.name])) as $cv
		| (if $m.better == "higher" then 1 else -1 end) as $dir
		| ([range($bv | length) | select(($cv[.] - $bv[.]) * $dir > 0)] | length) as $wins
		| ($bv | quantile(0.5)) as $bm | ($cv | quantile(0.5)) as $cm
		| [$m.name, $m.better,
		   ($bv | quantile(0.25) | r3), ($bm | r3), ($bv | quantile(0.75) | r3),
		   ($cv | quantile(0.25) | r3), ($cm | r3), ($cv | quantile(0.75) | r3),
		   ($cm / $bm | r3), "\($wins)/\($bv | length)",
		   (if $wins * 10 >= ($bv | length) * 9
		       and ($cm - $bm) * $dir > ($bv | quantile(0.75)) - ($bv | quantile(0.25))
		    then "yes" else "no" end)]),
	  (["failed_ops", "lower", "", ($b | map(.failed) | add), "", "", ($c | map(.failed) | add), "", "", "",
	    (if all(.[]; .correct) then "all-correct" else "WRONG-ANSWERS" end)])
	| @tsv' "$runs" | awk -F'\t' '{ printf "%-18s", $1; for (i = 2; i <= NF; i++) printf "%-12s", $i; print "" }'
