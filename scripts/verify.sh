#!/usr/bin/env bash
# Repository verification, in fifteen stages: rustfmt's check, tier-1
# build+test, the workspace tests, the doc-reference check, the
# parallel-sweep smoke (byte-identity across thread counts; usage errors,
# the removed --json, --run-id and bench_trajectory gate flags among them),
# the golden byte-compares, the frozen benchmark package (a --locked build
# + smoke run), the paired perf gate against the parent commit
# (scripts/ab.sh HEAD~1), the observability smoke, the line-level sampler
# smoke, the no-unwind proof (a release build under --cfg atos_nopanic that
# links only if no hot function can unwind, and its control), miri, the
# model checker under --cfg atos_check (tests + the clippy pass that holds
# the atomics facade), clippy (determinism and SAFETY comments), and eleven
# seeded twins: edits of the real tree that those three clippy lints, four
# queue_models.rs drivers, the SSSP golden, the PageRank emit oracle and
# the no-unwind proof (twice) must each reject (the emit twin only on a
# host whose CPU runs the AVX-512F emit; ten elsewhere).
#
# Usage: scripts/verify.sh  (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt (cargo fmt --all --check) =="
# Every workspace member is rustfmt-clean with the default settings. The
# frozen benchmark/ is its own workspace, so this neither checks nor
# rewrites it.
cargo fmt --all --check
echo "ok: the workspace is formatted"

echo
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
# not in backticks (DESIGN.md §11). The docs are README, DESIGN, EXPERIMENTS,
# results/README.md and the verify skill's SKILL.md; benchmark/README.md is
# frozen with its package and ROADMAP.md names deleted files on purpose, so
# neither is checked.
python3 - README.md DESIGN.md EXPERIMENTS.md results/README.md .*/skills/verify/SKILL.md <<'EOF'
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
# entry, an unknown experiment; then bench_trajectory's deleted gate flags.
for args in "fig5_scaling_nvlink --load-balance steal" "fig5_scaling_nvlink --sim-threads 4" \
        "fig5_scaling_nvlink --json x" "fig5_scaling_nvlink --run-id x" \
        "table2_bfs_nvlink --trace $tmp/no.json" "table9"; do
    # shellcheck disable=SC2086
    "$bench" $args --quick > /dev/null 2>&1 && rc=0 || rc=$?
    [ "$rc" -eq 2 ] || { echo "FAIL: atos-bench $args exited $rc, expected 2" >&2; exit 1; }
done
for args in "--deny-regression 60" "--samples 3" "--skip-e2e" "--skip-graph"; do
    # shellcheck disable=SC2086
    ./target/release/bench_trajectory $args > /dev/null 2>&1 && rc=0 || rc=$?
    [ "$rc" -eq 2 ] || { echo "FAIL: bench_trajectory $args exited $rc, expected 2" >&2; exit 1; }
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
# --locked: a changed dependency of a crate it builds fails here instead
# of silently rewriting the frozen benchmark/Cargo.lock.
cargo build --release --locked --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke --out "$tmp/benchmark-out" > "$tmp/benchmark-smoke.out" 2>&1 || {
    tail -n 40 "$tmp/benchmark-smoke.out" >&2
    echo "FAIL: benchmark/run.sh --smoke" >&2
    exit 1
}
echo "ok: benchmark package builds and its smoke run verifies"

echo
echo "== paired perf gate (scripts/ab.sh HEAD~1) =="
# Builds the parent commit's bench_trajectory under target/ab/ and runs it
# and this tree's alternately (the fig5/fig8/fig9 quick workloads and the
# graph-construction layer); a metric fails when the change is worse than
# its parent by more than FLOOR in the median pair and in at least 2/3 of
# the pairs (crates/bench/src/trajectory.rs, DESIGN.md §4.12). Both sides
# run on this host in this session; results/BENCH_trajectory.json is a
# record and gates nothing. A parent that cannot be checked out fails here.
scripts/ab.sh HEAD~1
echo "ok: no metric regressed against the parent"

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
echo "== no-unwind proof (release build under --cfg atos_nopanic) =="
# Under the cfg, every #[atos_hot] function (and every `hot!(name, ..)` body
# in atos-queue and atos-graph) runs behind a guard whose Drop calls an
# undefined symbol, `atos_nopanic: <file>::<fn>`, and is forgotten on
# return: the build links only if the optimiser removed every unwinding
# edge from every hot function that a binary or example links (DESIGN.md
# §7). Its own target dir: the cfg changes every crate's code.
RUSTFLAGS="--cfg atos_nopanic" CARGO_TARGET_DIR=target/nopanic \
    cargo build --release --workspace --bins --examples -q
echo "ok: no hot function can unwind"
# The control drops the guard instead of forgetting it, so every hot
# function a binary links references its symbol, and the link must fail
# naming each hot-marked function (alloc_count.rs' scan) except those no
# binary or example links, each listed here with its reason. A new marker
# on a function nothing links fails here by name.
unlinked=(
    # CasQueue::push, the single-item push: fig1_queue and queue_stress push
    # CAS groups, and run_host's workers use the counter queue.
    "queue/src/cas.rs::push"
)
control=target/twins/control
rm -rf "$control" && mkdir -p "$control"
# A tracked file deleted in the working tree is skipped (tar warns).
git ls-files -z | tar --null -T - -c --ignore-failed-read | tar -x -C "$control"
# The symbol also returns here: a diverging drop on every path would make
# the code after the first hot call dead, and its guards with it.
sed -i -e 's/::core::mem::forget(atos_guard);/::core::mem::drop(atos_guard);/' \
    -e 's/fn unwinds() -> !;/fn unwinds();/' \
    "$control/crates/macros/src/lib.rs" "$control/crates/queue/src/hot.rs"
# The linker names every undefined symbol (--error-limit=0), and
# --keep-going links every binary and example.
nopanic=(env RUSTFLAGS="--cfg atos_nopanic -C link-arg=-Wl,--error-limit=0"
    CARGO_TARGET_DIR="$PWD/target/twins/nopanic"
    cargo build --release --workspace --bins --examples --keep-going)
if (cd "$control" && "${nopanic[@]}") > "$tmp/control.out" 2>&1; then
    echo "FAIL: the control build linked: the guard no longer reaches the linker" >&2
    exit 1
fi
python3 - "$tmp/control.out" "${unlinked[@]}" <<'EOF'
import os, re, sys
named = set(re.findall(r"undefined symbol: atos_nopanic: crates/(\S+)", open(sys.argv[1]).read()))
marked = set()
for krate in ["core", "sim", "queue", "graph", "apps"]:
    src = f"crates/{krate}/src"
    for file in sorted(os.listdir(src)):
        attribute = False
        for line in open(os.path.join(src, file)):
            line = line.strip()
            if line.startswith("//"):
                continue
            m = re.search(r"hot!\((\w+)", line) or (attribute and re.search(r"\bfn (\w+)", line))
            attribute |= line == "#[atos_hot]"
            if m:
                marked.add(f"{krate}/src/{file}::{m.group(1)}")
                attribute = False
unlinked = set(sys.argv[2:])
missing = sorted(marked - unlinked - named)
stale = sorted(unlinked & named) + sorted(unlinked - marked)
if missing or stale or named - marked:
    print(f"FAIL: the control named {len(named)} of {len(marked)} hot functions", file=sys.stderr)
    for key in missing:
        print(f"  linked by no binary or example: {key}", file=sys.stderr)
    for key in stale:
        print(f"  listed as unlinked, but linked or no longer marked: {key}", file=sys.stderr)
    for key in sorted(named - marked):
        print(f"  named, but not found by the marker scan: {key}", file=sys.stderr)
    sys.exit(1)
print(f"ok: the control names all {len(named)} linked hot functions "
      f"({len(unlinked)} more are linked by no binary)")
EOF

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
# ones out of undriven files) and drives two sibling pops racing on one
# queue as run_host's workers do (queue_models.rs); the last stage shows it
# rejects four weakened orderings of the real queues. Clippy then lints the
# #[cfg(atos_check)] code the ordinary pass below never compiles, and is
# the facade guard: only under this cfg do `atos_queue::sync`'s names
# resolve to the checker's shadow types, so crates/check/clippy.toml's
# disallowed std atomics, `UnsafeCell` and `fence` flag every use that
# bypasses the checker. Examples stay out: none builds under the cfg.
RUSTFLAGS="--cfg atos_check" CARGO_TARGET_DIR=target/check \
    cargo test -p atos-check -q
RUSTFLAGS="--cfg atos_check" CARGO_TARGET_DIR=target/check CLIPPY_CONF_DIR="$PWD/crates/check" \
    cargo clippy --workspace --lib --bins --tests -- -D warnings

echo
echo "== clippy (deny warnings) =="
# Also the determinism guard (crates/{sim, core, apps, baselines}/clippy.toml:
# no clock, sleep, host thread count or default hasher) and the SAFETY-comment
# rule (`undocumented_unsafe_blocks`, [workspace.lints.clippy]).
cargo clippy --workspace --all-targets -- -D warnings

echo
echo "== seeded twins (each edit of the real tree must fail its named check) =="
# A copy of the tracked tree under target/ (fixed paths and shared target
# dirs keep warm runs short); each twin is one compiling edit of one file,
# applied alone and reverted. Three must fail clippy naming their lint; four
# weaken an ordering of the counter or CAS queue's publication protocol and
# must fail a queue_models.rs driver under --cfg atos_check with the race
# detector's failure kind and a schedule that replays to it (≈ 1 min, most
# of it the three-pusher driver); one breaks SSSP's heavy-edge select and
# must fail the whole-run fingerprints of sssp_golden.rs; one drops a lane
# from PageRank's vector emit and must fail its oracle against the plain
# emit; two put an unwinding edge in a hot function, which the no-unwind
# proof build must refuse to link, naming the function.
twins=target/twins/tree
rm -rf "$twins" && mkdir -p "$twins"
git ls-files -z | tar --null -T - -c --ignore-failed-read | tar -x -C "$twins"
caught=0
# twin <file> <edit> <pattern> <command...>: apply <edit> (a command filtering
# <file>) in the copy, run <command> there, which must fail and print
# <pattern> (an extended regex), then restore the file.
twin() {
    local file="$1" edit="$2" pattern="$3"
    shift 3
    sh -c "$edit" < "$file" > "$twins/$file"
    if cmp -s "$file" "$twins/$file"; then
        echo "FAIL: a twin's edit no longer applies to $file (expecting $pattern)" >&2
        exit 1
    fi
    if (cd "$twins" && "$@") > "$tmp/twin.out" 2>&1; then
        echo "FAIL: a twin in $file passed: $*" >&2
        exit 1
    fi
    grep -Eq "$pattern" "$tmp/twin.out" || {
        tail -n 30 "$tmp/twin.out" >&2
        echo "FAIL: a twin in $file failed without printing $pattern" >&2
        exit 1
    }
    cp "$file" "$twins/$file"
    caught=$((caught + 1))
    echo "ok: a twin in $file fails: $(grep -Eo "$pattern" "$tmp/twin.out" | head -n 1)"
}
plain=(env CARGO_TARGET_DIR="$PWD/target/twins/default")
checked=(env RUSTFLAGS="--cfg atos_check" CARGO_TARGET_DIR="$PWD/target/twins/check")
# "${drive[@]}" <test>: one queue_models.rs driver, exactly.
drive=("${checked[@]}" cargo test -q -p atos-check --test queue_models -- --exact)
# (a) A raw atomic in the counter queue, imported above its first `use`,
# under the facade pass.
twin crates/queue/src/counter.rs \
    "awk '!done && /^use / { print \"use std::sync::atomic::AtomicUsize;\"; done = 1 } { print }'" \
    "clippy::disallowed_types" \
    "${checked[@]}" CLIPPY_CONF_DIR="$PWD/$twins/crates/check" cargo clippy -p atos-queue --lib -- -D warnings
# (b) A wall-clock read into a trace counter in the runtime.
twin crates/core/src/runtime.rs "cat; cat <<'RS'
pub fn injected_trace(tracer: &mut dyn atos_trace::Tracer) {
    let t0 = std::time::Instant::now();
    let wall = t0.elapsed().as_nanos() as u64;
    tracer.counter(atos_trace::Track::pe(0), 0, \"wall\", wall);
}
RS" "clippy::disallowed_types" \
    "${plain[@]}" cargo clippy -p atos-core --lib -- -D warnings
# (c) One SAFETY comment dropped from the counter queue.
twin crates/queue/src/counter.rs "sed '0,/\/\/ SAFETY:/{//d}'" "clippy::undocumented_unsafe_blocks" \
    "${plain[@]}" cargo clippy -p atos-queue --lib -- -D warnings
# (d) The counter queue's publication chain in push_group all Relaxed: a
# popper's Acquire load of `end` no longer orders the slot write before its
# read.
twin crates/queue/src/counter.rs "sed -e '/self.end_max.fetch_max(idx + n,/s/AcqRel/Relaxed/' \
        -e '/self.end_count.fetch_add(n,/s/AcqRel/Relaxed/' \
        -e '/let m = self.end_max.load(/s/Acquire/Relaxed/' -e '/self.end.fetch_max(m,/s/AcqRel/Relaxed/'" \
    "replay reproduced DataRace" "${drive[@]}" counter_push_pop_publication_safe
# (e) The CUDA listing's hole: `end` publishes a re-read of `end_max`, which a
# higher group may have raised over a reserved, unwritten range.
twin crates/queue/src/counter.rs \
    "sed 's/self.end.fetch_max(m, /self.end.fetch_max(self.end_max.load(Ordering::Acquire), /'" \
    "replay reproduced (DataRace|UninitRead)" "${drive[@]}" counter_three_pushers_one_popper
# (f) The CAS queue's pop reads `end` Relaxed: seeing `end > start` no
# longer synchronizes with the publisher.
twin crates/queue/src/cas.rs \
    "sed '/pub fn pop_group/,/^    }\$/s/self.end.load(Ordering::Acquire)/self.end.load(Ordering::Relaxed)/'" \
    "replay reproduced DataRace" "${drive[@]}" cas_pop_reservation_relaxed_is_sound
# (g) The counter queue's pops read `end` Relaxed, in the claim and in the
# drain of an earlier claim.
twin crates/queue/src/counter.rs \
    "sed -e '/pub fn pop_group/,/^    }\$/s/self.end.load(Ordering::Acquire)/self.end.load(Ordering::Relaxed)/' \
        -e '/fn drain_claim/,/^    }\$/s/self.end.load(Ordering::Acquire)/self.end.load(Ordering::Relaxed)/'" \
    "replay reproduced DataRace" "${drive[@]}" counter_push_pop_publication_safe
# (h) SSSP's select loses its task-kind term: a heavy task relaxes its light
# edges too, which its light tasks already did, and moves whole runs.
twin crates/apps/src/sssp.rs "sed 's/let skip_light = kind == KIND_HEAVY;/let skip_light = false;/'" \
    "panicked at crates/apps/tests/sssp_golden.rs" \
    "${plain[@]}" cargo test -q -p atos-apps --test sssp_golden
# (i) PageRank's vector emit loses the last lane of its mask: it counts a
# slot it never wrote. The kernel is AVX-512F, so the twin runs where the
# unedited oracle names that compilation among those it checked (the test's
# own CPU detection); elsewhere eight twins are required.
emit_oracle=(cargo test -q -p atos-apps --lib pagerank::tests::every_emit_this_host_runs_matches_the_plain_path)
(cd "$twins" && "${plain[@]}" "${emit_oracle[@]}" -- --nocapture) > "$tmp/emit.out" 2>&1 || {
    tail -n 30 "$tmp/emit.out" >&2
    echo "FAIL: the unedited emit oracle fails" >&2
    exit 1
}
want=10
if grep -q 'emit compilations checked against the plain path: \[Avx512f' "$tmp/emit.out"; then
    twin crates/apps/src/pagerank.rs \
        "sed 's/let mask = ((1u32 << n) - 1) as u16;/let mask = (((1u32 << n) - 1) >> 1) as u16;/'" \
        "tasks differ from the plain emit" \
        "${plain[@]}" "${emit_oracle[@]}"
    want=11
else
    echo "skip: twin (i); $(grep -o 'emit compilations checked.*' "$tmp/emit.out")"
fi
# (j) PageRank's hint panics on the arm it never takes (contributions are
# never popped): the proof build must name the function.
twin crates/apps/src/pagerank.rs \
    "sed 's/let PrTask::Relax(v) = \*task else { return };/let PrTask::Relax(v) = *task else { panic!(\"a contribution was popped\") };/'" \
    "atos_nopanic: crates/apps/src/pagerank.rs::prefetch" "${nopanic[@]}"
# (k) The counter queue's pop reads the slot at its claim's start through a
# checked index, which panics when the claim starts at the capacity.
twin crates/queue/src/counter.rs \
    "sed '/pub fn pop_group/,/^    }\$/s/let s = self.start.load(Ordering::Relaxed);/let s = self.start.load(Ordering::Relaxed);\n                let _ = \&self.slots[s as usize];/'" \
    "atos_nopanic: crates/queue/src/counter.rs::pop_group" "${nopanic[@]}"
[ "$caught" -eq "$want" ] || { echo "FAIL: $caught seeded twins ran, expected $want" >&2; exit 1; }
echo
echo "verify: all checks passed"
