#!/usr/bin/env bash
# Repository verification: tier-1 build+test, a parallel-sweep smoke run
# with byte-identity check, and a clean clippy pass.
#
# Usage: scripts/verify.sh  (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

echo
echo "== workspace tests =="
cargo test --workspace -q

echo
echo "== parallel sweep smoke (--quick --threads 2, byte-identity vs serial) =="
cargo build --release --workspace --bins -q
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for bin in table2_bfs_nvlink table5_ib fig5_scaling_nvlink; do
    ./target/release/"$bin" --quick --threads 1 --json "$tmp/sweep.json" \
        > "$tmp/$bin.serial.out" 2> /dev/null
    ./target/release/"$bin" --quick --threads 2 --json "$tmp/sweep.json" \
        > "$tmp/$bin.threads2.out" 2> /dev/null
    if ! cmp -s "$tmp/$bin.serial.out" "$tmp/$bin.threads2.out"; then
        echo "FAIL: $bin stdout differs between --threads 1 and --threads 2" >&2
        diff "$tmp/$bin.serial.out" "$tmp/$bin.threads2.out" | head >&2
        exit 1
    fi
    echo "ok: $bin byte-identical across thread counts"
done
grep -q '"table2_bfs_nvlink"' "$tmp/sweep.json" || {
    echo "FAIL: sweep timing report missing table2_bfs_nvlink entry" >&2
    exit 1
}
echo "ok: sweep timing report written"
# --run-id keys the entry as <binary>@<id> so histories accumulate.
./target/release/table2_bfs_nvlink --quick --threads 1 --json "$tmp/sweep.json" \
    --run-id "verify@smoke" > /dev/null 2> /dev/null
grep -q '"table2_bfs_nvlink@verify@smoke"' "$tmp/sweep.json" || {
    echo "FAIL: --run-id did not key the sweep report entry" >&2
    exit 1
}
echo "ok: --run-id keys sweep report entries"

echo
echo "== sharded engine smoke (--sim-threads 4, byte-identity vs sequential) =="
# The K-shard conservative-PDES engine must be byte-identical to the
# sequential run (DESIGN.md §8); the sweep entry must record sim_threads.
./target/release/fig5_scaling_nvlink --quick --threads 1 --sim-threads 4 \
    --json "$tmp/sweep.json" > "$tmp/fig5_scaling_nvlink.sharded.out" 2> /dev/null
if ! cmp -s "$tmp/fig5_scaling_nvlink.serial.out" "$tmp/fig5_scaling_nvlink.sharded.out"; then
    echo "FAIL: fig5_scaling_nvlink differs between --sim-threads 1 and 4" >&2
    diff "$tmp/fig5_scaling_nvlink.serial.out" "$tmp/fig5_scaling_nvlink.sharded.out" | head >&2
    exit 1
fi
echo "ok: fig5_scaling_nvlink byte-identical across shard counts"
grep -q '"sim_threads": 4' "$tmp/sweep.json" || {
    echo "FAIL: sweep report entry missing sim_threads field" >&2
    exit 1
}
echo "ok: sweep report records sim_threads"

echo
echo "== load-balance smoke (owner byte-identity, steal determinism) =="
# Stealing (DESIGN.md §10) must be invisible under the default policy:
# --load-balance owner is byte-identical to the plain run (and therefore
# to the committed goldens below). steal legitimately changes the schedule
# and the virtual clock, but the simulation stays deterministic: two
# identical invocations must produce byte-identical stdout (that stealing
# changes no answer is a tier-1 test, tests/end_to_end.rs).
./target/release/fig5_scaling_nvlink --quick --threads 1 --load-balance owner \
    --json "$tmp/sweep.json" > "$tmp/fig5.lb_owner.out" 2> /dev/null
if ! cmp -s "$tmp/fig5_scaling_nvlink.serial.out" "$tmp/fig5.lb_owner.out"; then
    echo "FAIL: --load-balance owner differs from the default run" >&2
    diff "$tmp/fig5_scaling_nvlink.serial.out" "$tmp/fig5.lb_owner.out" | head >&2
    exit 1
fi
echo "ok: --load-balance owner byte-identical to the default"
for rerun in a b; do
    ./target/release/fig5_scaling_nvlink --quick --threads 1 \
        --load-balance steal --json "$tmp/sweep.json" \
        > "$tmp/fig5.lb_steal.$rerun.out" 2> /dev/null
done
if ! cmp -s "$tmp/fig5.lb_steal.a.out" "$tmp/fig5.lb_steal.b.out"; then
    echo "FAIL: --load-balance steal not deterministic across reruns" >&2
    diff "$tmp/fig5.lb_steal.a.out" "$tmp/fig5.lb_steal.b.out" | head >&2
    exit 1
fi
echo "ok: --load-balance steal deterministic (reruns byte-identical)"
# The retired disciplines are usage errors, not silent aliases.
./target/release/fig5_scaling_nvlink --quick --load-balance chunk > /dev/null 2>&1 && rc=0 || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: --load-balance chunk exited $rc, expected 2" >&2; exit 1; }
echo "ok: --load-balance chunk is rejected (exit 2)"

echo
echo "== golden byte-compare (committed quick outputs pin determinism) =="
for pair in "fig5_scaling_nvlink:results/fig5_quick.txt" "table5_ib:results/table5_quick.txt"; do
    bin="${pair%%:*}"; golden="${pair#*:}"
    if ! cmp -s "$tmp/$bin.serial.out" "$golden"; then
        echo "FAIL: $bin --quick output differs from committed $golden" >&2
        diff "$tmp/$bin.serial.out" "$golden" | head >&2
        exit 1
    fi
    echo "ok: $bin --quick matches $golden byte-for-byte"
done

echo
echo "== bench trajectory (engine microbench + e2e smoke, regression gate) =="
# Re-measures the wheel-vs-heap microbench, the fig5/fig8 quick
# workloads, the shard-scaling curve, the load-balance sweep
# (owner vs steal wall clock + steal counters, delta-stepping vs
# Dijkstra-order SSSP), and the graph-construction layer (graph_build:
# full-scale R-MAT + road-mesh generation, host_cores-keyed like the
# shard curve), then gates against the last committed entries
# in results/BENCH_trajectory.json. Thresholds are loose (shared hosts
# are noisy); the ratios are load-relative and therefore stable. The
# shard floor self-gates on host core count — a 1-core host records a
# flat curve instead of failing — and cross-host comparisons are
# skipped for the host-dependent kinds (host_cores is recorded).
./target/release/bench_trajectory \
    --sha "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    --stamp "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --samples 3 --min-speedup 1.5 --min-shard-speedup 1.6 --deny-regression 60
echo "ok: trajectory gate passed"

echo
echo "== observability smoke (--trace / --metrics artifacts) =="
./target/release/table2_bfs_nvlink --quick --threads 1 \
    --json "$tmp/sweep.json" \
    --trace "$tmp/trace.json" --metrics "$tmp/metrics.json" \
    > /dev/null 2> /dev/null
python3 - "$tmp/trace.json" "$tmp/metrics.json" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "trace has no events"
names = {e.get("name") for e in events}
assert "step" in names, f"no per-PE step spans in trace: {sorted(names)}"
assert "msg" in names, "no message-arrival instants in trace"
assert any(n.startswith("flush[") for n in names), "no aggregator flush spans"
metrics = json.load(open(sys.argv[2]))
for key in ("queue.cas_retries", "queue.occupancy_hwm", "run.elapsed_ns"):
    assert key in metrics, f"metrics snapshot missing {key}"
print(f"ok: trace has {len(events)} events, metrics has {len(metrics)} counters")
EOF

echo
echo "== shard profiling smoke (--sim-threads 4 --trace --metrics | atos-profile) =="
# A sharded reference run must carry per-shard detail in both artifacts
# (satellite of the profiling layer: shard tracks in the trace,
# shard<k>.*/sharded.* metrics), and atos-profile must turn the snapshot
# into a non-empty bottleneck report, exit 0.
./target/release/fig5_scaling_nvlink --quick --threads 1 --sim-threads 4 \
    --json "$tmp/sweep.json" \
    --trace "$tmp/shard_trace.json" --metrics "$tmp/shard_metrics.json" \
    --flight-dump "$tmp/flight.json" \
    > /dev/null 2> /dev/null
python3 - "$tmp/shard_trace.json" "$tmp/shard_metrics.json" "$tmp/flight.json" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
names = {e.get("name") for e in trace["traceEvents"]}
assert "step" in names, "per-PE timeline lost in sharded trace"
assert "window" in names, f"no per-shard window spans: {sorted(names)}"
metrics = json.load(open(sys.argv[2]))
assert metrics.get("sharded.shards") == 4, "metrics missing sharded.shards=4"
for key in ("shard0.events", "shard3.windows", "sharded.imbalance_permille"):
    assert key in metrics, f"metrics snapshot missing {key}"
flight = json.load(open(sys.argv[3]))
assert flight["shards"], "flight dump has no shard rings"
print("ok: sharded artifacts carry per-shard detail")
EOF
report="$("./target/release/atos-profile" "$tmp/shard_metrics.json")"
test -n "$report" || { echo "FAIL: atos-profile printed nothing" >&2; exit 1; }
echo "$report" | grep -q "imbalance" || {
    echo "FAIL: atos-profile report missing imbalance verdict" >&2
    exit 1
}
echo "ok: atos-profile bottleneck report ($(echo "$report" | wc -l) lines)"

echo
echo "== workspace static analysis (atos-lint, baseline-gated, SARIF) =="
# Interprocedural pass over the whole workspace: transitive alloc/panic
# propagation, determinism-taint, barrier-phase, shard-escape (owner-
# computes flow), unchecked-guard (reservation-bound proofs). Gate on
# new findings and validate the SARIF 2.1.0 stream structurally. The
# cold run prints the per-phase/per-rule --timings breakdown so a rule
# that regresses from microseconds to seconds shows up in every log.
lint_t0="$(date +%s%N)"
cargo run -q -p atos-lint -- --workspace --deny-new --emit sarif --timings \
    --cache "$tmp/lint.cache" > "$tmp/lint.sarif" 2> "$tmp/lint.stderr"
lint_t1="$(date +%s%N)"
cat "$tmp/lint.stderr"
grep -q "wall time by phase and rule:" "$tmp/lint.stderr" || {
    echo "FAIL: --timings printed no per-rule breakdown" >&2
    exit 1
}
echo "ok: atos-lint --workspace --deny-new clean in $(( (lint_t1 - lint_t0) / 1000000 )) ms (cold)"
python3 - "$tmp/lint.sarif" <<'EOF'
import json, sys
sarif = json.load(open(sys.argv[1]))
assert sarif["version"] == "2.1.0", f"bad SARIF version: {sarif.get('version')}"
assert sarif["$schema"].endswith("sarif-2.1.0.json"), "bad $schema"
runs = sarif["runs"]
assert len(runs) == 1, "expected exactly one run"
driver = runs[0]["tool"]["driver"]
assert driver["name"] == "atos-lint"
rule_ids = [r["id"] for r in driver["rules"]]
for rule in ("hot-path-alloc", "determinism-taint", "barrier-phase",
             "shard-escape", "unchecked-guard"):
    assert rule in rule_ids, f"driver.rules missing {rule}"
for res in runs[0].get("results", []):
    assert res["ruleId"] in rule_ids, f"result with unknown ruleId {res['ruleId']}"
    loc = res["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"], "result missing file uri"
    assert loc["region"]["startLine"] >= 1, "result missing line"
print(f"ok: SARIF valid ({len(rule_ids)} rules, {len(runs[0].get('results', []))} results)")
EOF
# The content-hash cache must make a second run a pure replay,
# byte-identical on stdout.
cargo run -q -p atos-lint -- --workspace --deny-new --emit sarif \
    --cache "$tmp/lint.cache" > "$tmp/lint2.sarif" 2> "$tmp/lint2.stderr"
grep -q "cache hit" "$tmp/lint2.stderr" || {
    echo "FAIL: second lint run did not hit the cache" >&2
    cat "$tmp/lint2.stderr" >&2
    exit 1
}
cmp -s "$tmp/lint.sarif" "$tmp/lint2.sarif" || {
    echo "FAIL: cached lint replay not byte-identical" >&2
    exit 1
}
echo "ok: lint cache hit, replay byte-identical"
# A warm-cache run is a content-hash + replay and must stay fast enough
# to sit in every pre-commit hook. Use the release binary built by the
# tier-1 step so cargo's own overhead stays out of the measurement (the
# cache key hashes workspace content + config, not the binary, so the
# debug-built cache file above hits here too).
lint_w0="$(date +%s%N)"
./target/release/atos-lint --workspace --deny-new --emit sarif \
    --cache "$tmp/lint.cache" > "$tmp/lint3.sarif" 2> "$tmp/lint3.stderr"
lint_w1="$(date +%s%N)"
warm_ms=$(( (lint_w1 - lint_w0) / 1000000 ))
grep -q "cache hit" "$tmp/lint3.stderr" || {
    echo "FAIL: release-binary lint run did not hit the cache" >&2
    cat "$tmp/lint3.stderr" >&2
    exit 1
}
cmp -s "$tmp/lint.sarif" "$tmp/lint3.sarif" || {
    echo "FAIL: release-binary cached replay not byte-identical" >&2
    exit 1
}
if [ "$warm_ms" -ge 500 ]; then
    echo "FAIL: warm-cache lint run took ${warm_ms} ms (budget: 500 ms)" >&2
    exit 1
fi
echo "ok: warm-cache lint run in ${warm_ms} ms (< 500 ms budget)"
# The committed wall-clock key inventory (consumed by
# crates/bench/tests/trace_golden.rs) must match a fresh regeneration.
cargo run -q -p atos-lint -- --workspace \
    --wall-clock-inventory "$tmp/wall_clock_keys.txt" > /dev/null
cmp -s results/wall_clock_keys.txt "$tmp/wall_clock_keys.txt" || {
    echo "FAIL: results/wall_clock_keys.txt is stale; regenerate with" >&2
    echo "  cargo run -q -p atos-lint -- --workspace --wall-clock-inventory results/wall_clock_keys.txt" >&2
    exit 1
}
echo "ok: wall-clock key inventory regen is a no-op"

echo
echo "== miri smoke (atos-queue unit tests) =="
# Availability-gated: the offline container has no rustup component
# download, so a missing miri is a skip, not a failure.
if cargo miri --version > /dev/null 2>&1; then
    cargo miri test -p atos-queue --lib -q
else
    echo "skip: miri not installed (rustup component add miri)"
fi

echo
echo "== model checker: queue suites under --cfg atos_check =="
# Separate target dir: the cfg changes atos-queue/atos-core codegen, and
# sharing ./target would thrash the production build cache.
RUSTFLAGS="--cfg atos_check" CARGO_TARGET_DIR=target/check \
    cargo test -p atos-check -q

echo
echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo
echo "verify: all checks passed"
