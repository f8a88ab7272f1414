#!/usr/bin/env bash
# Paired comparison of the working tree against a base commit, on this host
# in this session: the perf gate of scripts/verify.sh (`scripts/ab.sh HEAD~1`).
#
# Usage: scripts/ab.sh <base> [WORKLOAD...]
#
# Builds <base>'s bench_trajectory in a checkout under target/ab/<sha>/ (git
# archive, no network) and the working tree's, then runs the two alternately
# for PAIRS pairs (crates/bench/src/trajectory.rs), swapping which side goes
# first in each pair. Each WORKLOAD named gets the same loop over both trees'
# `benchmark/run.sh --workload W --seed 1 --seconds 5 --trace 0`, on the
# end-to-end metrics of BENCHMARK.json, each in the direction it declares.
# The working tree's `bench_trajectory --compare` then judges every metric
# and prints the table; the exit status is 1 if any failed.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 1 ] || { echo "usage: scripts/ab.sh <base> [WORKLOAD...]" >&2; exit 2; }
base="$(git rev-parse --verify --quiet --short "$1^{commit}")" ||
    { echo "FAIL: ab.sh: cannot check out \`$1\`" >&2; exit 1; }
shift
pairs="$(sed -n 's/^pub const PAIRS: usize = \([0-9]*\);$/\1/p' crates/bench/src/trajectory.rs)"
[ -n "$pairs" ] || { echo "FAIL: ab.sh: no PAIRS constant in trajectory.rs" >&2; exit 1; }

tree="target/ab/$base"
if [ ! -d "$tree" ]; then
    rm -rf "$tree.partial" && mkdir -p "$tree.partial"
    git archive "$base" | tar -x -C "$tree.partial"
    mv "$tree.partial" "$tree"
fi
# Each tree builds into its own target/, benchmark/target/ for run.sh.
unset CARGO_TARGET_DIR
for t in "$tree" .; do
    cargo build --release --offline -q -p atos-bench --bin bench_trajectory --manifest-path "$t/Cargo.toml"
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
samples="$tmp/samples"
# The end-to-end metrics of BENCHMARK.json, `name better` per line.
sed -n 's/.*"name": "\([a-z_]*\)".*"better": "\([a-z]*\)", "bound".*/\1 \2/p' \
    BENCHMARK.json > "$tmp/better"

# trajectory <side> <tree>: one bench_trajectory run, its `  key value` lines.
trajectory() {
    (cd "$2" && ./target/release/bench_trajectory) |
        awk -v s="$1" '/^  [a-z]/ { print s, $1, $2 }' >> "$samples"
}
# workload <name> <side> <tree>: one benchmark run, its end-to-end metrics.
workload() {
    bash "$3/benchmark/run.sh" --workload "$1" --seed 1 --seconds 5 --trace 0 --out "$tmp/out" |
        awk -v s="$2" -v w="$1" 'NR == FNR { better[$1] = $2; next }
            $1 == w && ($2 in better) { print s, w "." $2, $3, better[$2] }' "$tmp/better" - \
        >> "$samples"
}
# run_pairs <command...>: PAIRS alternating runs of each side, base first in
# odd pairs.
run_pairs() {
    for i in $(seq "$pairs"); do
        printf '\rab.sh: %s pair %d/%d ' "$*" "$i" "$pairs" >&2
        if [ $((i % 2)) -eq 1 ]; then "$@" base "$tree"; "$@" change .
        else "$@" change .; "$@" base "$tree"; fi
    done
    echo >&2
}
run_pairs trajectory
for w in "$@"; do run_pairs workload "$w"; done

echo "base $base, change $(git rev-parse --short HEAD)$([ -z "$(git status --porcelain)" ] || echo +dirty)"
echo "host: $(nproc) cores, $(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)," \
    "THP $(sed 's/.*\[\(.*\)\].*/\1/' /sys/kernel/mm/transparent_hugepage/enabled 2>/dev/null || echo unknown)"
./target/release/bench_trajectory --compare "$samples"
