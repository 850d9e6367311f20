#!/bin/sh
# Runs the benchmark on two checkouts in alternating pairs and compares
# them with the bounds in BENCHMARK.json:
#
#   sh perfbench/pairs.sh PARENT_DIR CHANGE_DIR [PAIRS] [SECONDS] [WORKLOAD...]
#
# The default workloads are the gated ones; name dist to add it.
#
# Pair i runs seed 1000+i on both sides; even pairs run the parent first,
# odd pairs the change. Results go to PARENT_DIR/.bench_build/pairs.jsonl
# and CHANGE_DIR/.bench_build/pairs.jsonl.
set -eu
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=${3:-10}
seconds=${4:-30}
shift $(( $# < 4 ? $# : 4 ))
workloads=${*:-ingest analyze query}

one() { # dir workload seed
	line=$(bash "$1/perfbench/run.sh" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
	printf '{"workload":"%s","seed":%s,"result":%s}\n' "$2" "$3" "$line" >> "$1/.bench_build/pairs.jsonl"
}

for dir in "$parent" "$change"; do
	mkdir -p "$dir/.bench_build"
	: > "$dir/.bench_build/pairs.jsonl"
done
for w in $workloads; do
	i=0
	while [ "$i" -lt "$pairs" ]; do
		seed=$((1000 + i))
		if [ $((i % 2)) -eq 0 ]; then
			one "$parent" "$w" "$seed"
			one "$change" "$w" "$seed"
		else
			one "$change" "$w" "$seed"
			one "$parent" "$w" "$seed"
		fi
		i=$((i + 1))
	done
done
"$change/.bench_build/perfbench" compare -spec "$change/BENCHMARK.json" \
	"$parent/.bench_build/pairs.jsonl" "$change/.bench_build/pairs.jsonl"
