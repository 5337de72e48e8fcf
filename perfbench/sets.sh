#!/usr/bin/env bash
# Runs the benchmark once per seed on each workload and appends every
# result line, tagged with its workload and seed, to a result-set file that
# `perfbench/run.sh compare` reads. Run from the repository root:
#
#   bash perfbench/sets.sh set-a.jsonl            # seeds 1..10, all workloads
#   bash perfbench/sets.sh set-b.jsonl 10 101 hot-mix cold-mix
#   bash perfbench/run.sh compare set-a.jsonl set-b.jsonl
set -euo pipefail
out=$1
runs=${2:-10}
first=${3:-1}
shift $(($# < 3 ? $# : 3))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(hot-mix cold-mix plan-matrix)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
for w in "${workloads[@]}"; do
	for ((s = first; s < first + runs; s++)); do
		line=$(bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 | tail -n 1)
		printf '{"workload":"%s","seed":%d,"result":%s}\n' "$w" "$s" "$line" >>"$out"
		echo "$w seed $s: $line" >&2
	done
done
