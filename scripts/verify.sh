#!/usr/bin/env bash
# Repository verification, in thirteen stages: tier-1 build+test, the
# workspace tests, the doc-reference check, the parallel-sweep smoke
# (byte-identity across thread counts; usage errors, the removed --json and
# --run-id among them), the golden byte-compares, the frozen benchmark
# package (build + smoke run), the bench trajectory gate, the observability
# smoke, the line-level sampler smoke, atos-lint, miri, the model checker
# under --cfg atos_check (tests + clippy), and clippy.
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
echo "== doc references (every backticked path.rs and path.rs::symbol resolves) =="
# A path resolves if it is a file of the tree or the tail of one (`comm.rs`,
# `tests/golden.rs`), after expanding `{a, b}` groups; a symbol must occur as
# a word in a file the path names. Deleted files are named in plain text,
# not in backticks (DESIGN.md §11). The docs are README, DESIGN, EXPERIMENTS
# and the verify skill's SKILL.md; benchmark/README.md is frozen with its
# package and is not checked.
python3 - README.md DESIGN.md EXPERIMENTS.md .*/skills/verify/SKILL.md <<'EOF'
import os, re, sys
tree = []
for d, dirs, names in os.walk("."):
    dirs[:] = [x for x in dirs if x not in (".git", "target")]
    tree += [os.path.join(d, x)[2:] for x in names if x.endswith(".rs")]
def expand(path):
    m = re.search(r"\{([^{}]*)\}", path)
    if not m:
        return [path]
    return [p for alt in m.group(1).split(",")
            for p in expand(path[:m.start()] + alt.strip() + path[m.end():])]
stale = []
for doc in sys.argv[1:]:
    for span in re.findall(r"`([^`\n]+)`", open(doc).read()):
        ref = re.fullmatch(r"([\w./{}, -]+\.rs)(?:::(\w+|\{[\w, ]+\}))?", span)
        if not ref:
            continue
        symbols = re.findall(r"\w+", ref.group(2) or "")
        for path in expand(ref.group(1)):
            hits = [f for f in tree if f == path or f.endswith("/" + path)]
            texts = [open(f).read() for f in hits]
            missing = [s for s in symbols if not any(re.search(rf"\b{s}\b", t) for t in texts)]
            if not hits or missing:
                stale.append(f"{doc}: `{span}`" + (f" ({', '.join(missing)} not in {path})" if hits else ""))
print("\n".join(stale) or "ok: every doc reference resolves")
sys.exit(bool(stale))
EOF

echo
echo "== parallel sweep smoke (--quick --threads 2, byte-identity vs serial) =="
cargo build --release --workspace --bins -q
bench=./target/release/atos-bench
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# same <label> <file-a> <file-b>: byte-compare two outputs.
same() {
    if ! cmp -s "$2" "$3"; then
        echo "FAIL: $1" >&2
        diff "$2" "$3" | head >&2
        exit 1
    fi
    echo "ok: $1"
}
# quick <experiment> <out> [flags...]: one --quick run, stdout to <out>.
quick() {
    local exp="$1" out="$2"; shift 2
    "$bench" "$exp" --quick --threads 1 "$@" > "$out" 2> /dev/null
}
for exp in table2_bfs_nvlink table4_pr_nvlink table5_ib fig5_scaling_nvlink fig8_scaling_ib_bfs \
        fig9_scaling_ib_pr; do
    quick "$exp" "$tmp/$exp.serial.out"
    quick "$exp" "$tmp/$exp.threads2.out" --threads 2
    same "$exp byte-identical across thread counts" "$tmp/$exp.serial.out" "$tmp/$exp.threads2.out"
done
# Usage errors exit 2: the deleted work-stealing, sharded-engine and
# timing-report flags (DESIGN.md §11), an artifact flag off the reference
# entry, an unknown experiment.
for args in "fig5_scaling_nvlink --load-balance steal" "fig5_scaling_nvlink --sim-threads 4" \
        "fig5_scaling_nvlink --json x" "fig5_scaling_nvlink --run-id x" \
        "table2_bfs_nvlink --trace $tmp/no.json" "table9"; do
    # shellcheck disable=SC2086
    "$bench" $args --quick > /dev/null 2>&1 && rc=0 || rc=$?
    [ "$rc" -eq 2 ] || { echo "FAIL: atos-bench $args exited $rc, expected 2" >&2; exit 1; }
done
echo "ok: unsupported flags and unknown experiments are rejected (exit 2)"

echo
echo "== golden byte-compare (committed outputs pin determinism) =="
for pair in fig5_scaling_nvlink:fig5 table4_pr_nvlink:table4 table5_ib:table5 fig8_scaling_ib_bfs:fig8 \
        fig9_scaling_ib_pr:fig9; do
    same "${pair%%:*} --quick matches results/${pair#*:}_quick.txt" \
        "$tmp/${pair%%:*}.serial.out" "results/${pair#*:}_quick.txt"
done
# The full-scale files that regenerate within a minute, so none can go stale
# (fig7 is the slowest, ≈ 25 s on 2 cores; full table4 takes ≈ 2 min and is
# gated at quick scale above).
for pair in table1_datasets:table1 table2_bfs_nvlink:table2 table3_priority_workload:table3 \
        fig2_efficiency:fig2 fig4_ib_sweep:fig4 fig7_summit_node:fig7; do
    "$bench" "${pair%%:*}" > "$tmp/full.out" 2> /dev/null
    same "${pair%%:*} matches results/${pair#*:}.txt" "$tmp/full.out" "results/${pair#*:}.txt"
done

echo
echo "== frozen benchmark package (build against the public surface + smoke run) =="
# benchmark/ is its own workspace, frozen to feature PRs, and built by the
# PR pipeline from the committed files. It consumes the crates' public
# surface (`Application`, `Emitter`, `AggBuffer::{new, push, len,
# flush_with}`, `Engine::{schedule_after, pop}`, `RunStats` field names,
# ...), so a break of that surface must fail here, not there. The smoke
# run drives all six workloads on tiny inputs and verifies every answer.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke --out "$tmp/benchmark-out" > "$tmp/benchmark-smoke.out" 2>&1 || {
    tail -n 40 "$tmp/benchmark-smoke.out" >&2
    echo "FAIL: benchmark/run.sh --smoke" >&2
    exit 1
}
echo "ok: benchmark package builds and its smoke run verifies"

echo "== bench trajectory (e2e smoke, regression gate) =="
# Re-measures the fig5/fig8/fig9 quick workloads (e2e_quick) and the
# graph-construction layer (graph_build: full-scale R-MAT + road-mesh
# generation), then gates against the last
# committed entries in results/BENCH_trajectory.json. The threshold is
# loose (shared hosts are noisy). Cross-host comparisons are skipped
# (host_cores is recorded).
./target/release/bench_trajectory \
    --sha "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    --stamp "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --samples 3 --deny-regression 60
echo "ok: trajectory gate passed"

echo
echo "== observability smoke (atos-bench reference --trace / --metrics) =="
quick reference /dev/null --trace "$tmp/trace.json" --metrics "$tmp/metrics.json"
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
echo "== line-level sampler smoke (examples/where_time_goes.rs) =="
# One sampled run of each workload — mesh BFS, split SSSP, direct and
# aggregated PageRank — must attribute at least one sample to a line of this
# workspace (DESIGN.md §4.8's, §4.9's and §4.10's tables come from this
# tool; §4.10 and §4.11 also use its `--by file` sums). It needs Linux x86_64
# and binutils' addr2line; anywhere else it has nothing to symbolise and
# says so.
for app in "bfs 1" "sssp 1" "pr 1" "prib 1 --by file"; do
    # shellcheck disable=SC2086  # $app is the tool's argument list
    cargo run --release -q --example where_time_goes -- $app > "$tmp/where.out"
    if grep -q "unsupported" "$tmp/where.out" || ! command -v addr2line > /dev/null; then
        echo "skip: $(head -n 1 "$tmp/where.out")"
    else
        grep -q "%  crates/" "$tmp/where.out" || {
            cat "$tmp/where.out" >&2
            echo "FAIL: where_time_goes $app attributed no sample to a line under crates/" >&2
            exit 1
        }
        # Every sample is in some row — this binary's lines, the mapped
        # object an outside sample hit, or the remainder row — so the count
        # column adds up to the header's "N samples".
        awk 'NR == 1 { for (i = 2; i <= NF; i++) if ($i == "samples,") taken = $(i - 1) }
             NR > 1 { rows += $1 }
             END { exit !(taken > 0 && rows == taken) }' "$tmp/where.out" || {
            cat "$tmp/where.out" >&2
            echo "FAIL: where_time_goes $app: the rows do not sum to the samples taken" >&2
            exit 1
        }
        echo "ok: $(head -n 1 "$tmp/where.out")"
    fi
done

echo
echo "== workspace static analysis (atos-lint) =="
# Interprocedural pass over the whole workspace: transitive panic
# propagation from the functions that mark themselves hot, and the lexical
# rules (facade-bypass, sim-determinism, missing-safety); exits 1 on any
# finding.
# --timings prints the per-phase/per-rule breakdown so a rule that
# regresses from microseconds to seconds shows up in every log, and the
# whole run must stay fast enough to sit in a pre-commit hook (the release
# binary built above keeps cargo's overhead out of the number).
lint_t0="$(date +%s%N)"
./target/release/atos-lint --workspace --timings > "$tmp/lint.out" 2> "$tmp/lint.stderr" || {
    cat "$tmp/lint.out" "$tmp/lint.stderr" >&2
    echo "FAIL: atos-lint --workspace reported findings" >&2
    exit 1
}
lint_ms=$(( ($(date +%s%N) - lint_t0) / 1000000 ))
cat "$tmp/lint.stderr"
grep -q "wall time by phase and rule:" "$tmp/lint.stderr" || {
    echo "FAIL: --timings printed no per-rule breakdown" >&2
    exit 1
}
if [ "$lint_ms" -ge 500 ]; then
    echo "FAIL: atos-lint --workspace took ${lint_ms} ms (budget: 500 ms)" >&2
    exit 1
fi
echo "ok: atos-lint --workspace clean in ${lint_ms} ms (< 500 ms budget)"

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
# sharing ./target would thrash the production build cache. This stage is
# the ordering guard: the race detector runs every UnsafeCell access in the
# queues (golden.rs::cell_accesses_stay_in_model_checked_files keeps new
# ones out of undriven files), drives two sibling pops racing on one queue
# as run_host's workers do (queue_models.rs), and catches the four seeded
# twins of mutation_detection.rs. Clippy then lints the
# #[cfg(atos_check)] code the ordinary pass below never compiles.
RUSTFLAGS="--cfg atos_check" CARGO_TARGET_DIR=target/check \
    cargo test -p atos-check -q
RUSTFLAGS="--cfg atos_check" CARGO_TARGET_DIR=target/check \
    cargo clippy -p atos-check -p atos-queue -p atos-core --all-targets -- -D warnings

echo
echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo
echo "verify: all checks passed"
