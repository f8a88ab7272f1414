//! Benchmark-trajectory subsystem: engine microbenchmarks, end-to-end
//! quick-workload timings, and the append-only perf history in
//! `results/BENCH_trajectory.json`.
//!
//! The ROADMAP's north star is a *measurable* perf trajectory: every PR
//! should be able to state whether it made the hot paths faster. This
//! module provides the three pieces:
//!
//! 1. **Engine microbench harness** ([`gen_times`], [`run_wheel`],
//!    [`run_heap`]): schedule-then-drain workloads over the timing-wheel
//!    engine and the retained heap reference, across three arrival-time
//!    distributions (uniform, bursty, near-now skewed). Both runners
//!    return an order-sensitive checksum, so the bench doubles as an
//!    equivalence check: the wheel must pop the exact heap sequence.
//! 2. **End-to-end quick workloads** ([`quick_grid_ms`]): the
//!    fig5/fig8/fig9 sweep grids at test scale — their cells enumerated from the
//!    experiment table ([`crate::registry`]) — run serially in-process so
//!    the number is a stable single-core wall-clock, not a function of
//!    host parallelism. The load-balance variant
//!    ([`measure_lb_sweep`]) times the quick BFS under owner-computes and
//!    under work stealing, and delta-stepping vs Dijkstra-order SSSP,
//!    recording the redundant-work/migration counters alongside.
//!    [`measure_graph_build`] times the layer underneath all of them:
//!    full-scale graph generation and the CSR build.
//! 3. **The trajectory file** ([`TrajectoryEntry`], [`read_trajectory`],
//!    [`append_entries`], [`check_regression`]): a committed, append-only
//!    JSON history keyed by `<git sha>@<timestamp>` — both passed in via
//!    CLI, never sampled in-process, so simulation crates stay free of
//!    wall-clock APIs. `scripts/verify.sh` re-measures and gates against
//!    the last committed entry with `--deny-regression <pct>`.
//!
//! All timing here is host-side wall clock around the system under test;
//! nothing in this module is compiled into the simulator.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use atos_apps::bfs::run_bfs;
use atos_core::AtosConfig;
use atos_graph::generators::{Preset, Scale};
use atos_sim::engine::reference::HeapEngine;
use atos_sim::{Engine, Fabric};

use crate::{registry, Dataset, RunConfig};

/// Default location of the committed trajectory history, relative to the
/// repo root.
pub const DEFAULT_TRAJECTORY_PATH: &str = "results/BENCH_trajectory.json";

// ---------------------------------------------------------------------------
// Engine microbench harness
// ---------------------------------------------------------------------------

/// Arrival-time distribution of a synthetic schedule→pop workload.
///
/// The three shapes stress different parts of the wheel: `Uniform` spreads
/// events across many rotations (cascades and bucket scans), `Bursty`
/// piles thousands of equal-time events into single buckets (seq-ordered
/// drains), and `NearNow` keeps deltas tiny so almost everything lands in
/// the imminent window (the heap's best case — the wheel must not lose).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    /// Times uniform over a horizon of ~100ns per event.
    Uniform,
    /// ~1024 events per distinct timestamp, timestamps 50µs apart.
    Bursty,
    /// Exponentially skewed toward the present (most deltas < 4µs).
    NearNow,
}

impl Dist {
    /// All distributions, in reporting order.
    pub const ALL: [Dist; 3] = [Dist::Uniform, Dist::Bursty, Dist::NearNow];

    /// Stable lowercase label used in bench names and metric keys.
    pub fn label(self) -> &'static str {
        match self {
            Dist::Uniform => "uniform",
            Dist::Bursty => "bursty",
            Dist::NearNow => "nearnow",
        }
    }
}

/// SplitMix64 step: the standard 64-bit mixer, deterministic and
/// dependency-free (the bench crate must not pull the sim's seeded RNG
/// into a measurement loop).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generate `n` deterministic event times for `dist` from `seed`.
pub fn gen_times(dist: Dist, n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let r = splitmix64(&mut state);
        let t = match dist {
            Dist::Uniform => r % (n as u64 * 100).max(1),
            Dist::Bursty => (r % (n as u64 / 1024 + 1)) * 50_000,
            // 2^(6..16) ns ceiling, then uniform below it: heavy mass in
            // the first few µs, a thin tail out to ~65µs.
            Dist::NearNow => {
                let exp = 6 + (r >> 58) % 11;
                (r >> 16) % (1u64 << exp)
            }
        };
        times.push(t);
    }
    times
}

/// Fold one popped `(time, payload)` pair into an order-sensitive
/// checksum (multiplicative fold: reorderings change the result).
fn fold(acc: u64, t: u64, v: u64) -> u64 {
    acc.wrapping_mul(0x100_0000_01B3).wrapping_add(t ^ v.rotate_left(17))
}

/// Schedule all `times` into the timing-wheel engine, then pop to empty;
/// returns the order-sensitive checksum of the drain.
pub fn run_wheel(times: &[u64]) -> u64 {
    let mut e: Engine<u64> = Engine::new();
    e.reserve(times.len());
    for (i, &t) in times.iter().enumerate() {
        e.schedule_at(t, i as u64);
    }
    let mut acc = 0u64;
    while let Some((t, v)) = e.pop() {
        acc = fold(acc, t, v);
    }
    acc
}

/// Same workload on the retained heap reference
/// ([`atos_sim::engine::reference::HeapEngine`]); must produce the same
/// checksum as [`run_wheel`] — the two engines share one total order.
pub fn run_heap(times: &[u64]) -> u64 {
    let mut e: HeapEngine<u64> = HeapEngine::new();
    for (i, &t) in times.iter().enumerate() {
        e.schedule_at(t, i as u64);
    }
    let mut acc = 0u64;
    while let Some((t, v)) = e.pop() {
        acc = fold(acc, t, v);
    }
    acc
}

/// Best-of-`samples` wall-clock milliseconds of `f` (first run discarded
/// as warm-up when `samples > 1`). Best-of, not median: scheduler noise
/// on a shared host only ever adds time, so the minimum is the most
/// reproducible estimate of the true cost.
pub fn best_of_ms<F: FnMut() -> u64>(samples: usize, mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut checksum = 0u64;
    if samples > 1 {
        checksum = std::hint::black_box(f());
    }
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        checksum = std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, checksum)
}

/// Measure wheel-vs-heap on `n` events of every distribution; returns the
/// metric map of an `engine_microbench` trajectory entry
/// (`<dist>_wheel_ms`, `<dist>_heap_ms`, `<dist>_speedup_x`, `events`).
/// Panics if any distribution's checksums diverge — a perf number for a
/// wrong engine is worse than no number.
pub fn measure_engine(n: usize, samples: usize) -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();
    metrics.insert("events".to_string(), n as f64);
    for dist in Dist::ALL {
        let times = gen_times(dist, n, 0x5EED_0000 + dist as u64);
        let (wheel_ms, wheel_sum) = best_of_ms(samples, || run_wheel(&times));
        let (heap_ms, heap_sum) = best_of_ms(samples, || run_heap(&times));
        assert_eq!(
            wheel_sum,
            heap_sum,
            "wheel and heap drains diverged on {} distribution",
            dist.label()
        );
        metrics.insert(format!("{}_wheel_ms", dist.label()), wheel_ms);
        metrics.insert(format!("{}_heap_ms", dist.label()), heap_ms);
        metrics.insert(format!("{}_speedup_x", dist.label()), heap_ms / wheel_ms);
    }
    metrics
}

// ---------------------------------------------------------------------------
// End-to-end quick workloads
// ---------------------------------------------------------------------------

/// Every cell of grid experiment `name` (a [`registry::GridSpec`] row:
/// `fig5_scaling_nvlink`, `fig8_scaling_ib_bfs`, …) at test scale, run
/// serially; returns wall-clock milliseconds. Dataset construction is
/// outside the timed region.
pub fn quick_grid_ms(name: &str) -> f64 {
    let spec = registry::grid(name);
    let datasets = spec.datasets(Scale::Tiny);
    let t0 = Instant::now();
    let mut acc = 0.0f64;
    for cell in spec.cells() {
        acc += spec.run_cell(&cell, &datasets, RunConfig::default()).elapsed_ms();
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Host parallelism as recorded in every machine-dependent entry.
pub fn host_cores() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// Measure the graph-construction layer for the `graph_build` trajectory
/// entry — the fixed cost every experiment, test and benchmark process
/// pays before its first task: best-of-`samples` wall clock of the
/// full-scale soc-LiveJournal1 stand-in (`rmat18_ms`: R-MAT 18, 4.3 M
/// edges) and osm-eur stand-in (`road1000_ms`: 1000² road mesh), both
/// sampling + CSR build, and the CSR build alone as input-edge throughput
/// (`from_edges_medges_per_s`, informational) on the R-MAT graph's edges
/// in target-major order, so sources arrive scattered the way a
/// generator emits them. Single-threaded, but wall-clock: records
/// `host_cores` so [`check_regression`] skips cross-host comparisons.
pub fn measure_graph_build(samples: usize) -> BTreeMap<String, f64> {
    use atos_graph::generators::{rmat, road_network};
    use atos_graph::Csr;

    let mut metrics = BTreeMap::new();
    metrics.insert("host_cores".to_string(), host_cores());
    let lj = || rmat(18, 4_300_000, (0.57, 0.19, 0.19, 0.05), 11);
    let (rmat_ms, _) = best_of_ms(samples, || lj().n_edges() as u64);
    metrics.insert("rmat18_ms".to_string(), rmat_ms);
    let (road_ms, _) = best_of_ms(samples, || road_network(1000, 1000, 66).n_edges() as u64);
    metrics.insert("road1000_ms".to_string(), road_ms);
    let g = lj();
    let scattered: Vec<_> = g.transpose().edges().map(|(v, u)| (u, v)).collect();
    let (build_ms, rebuilt) = best_of_ms(samples, || {
        Csr::from_edges(g.n_vertices(), &scattered).n_edges() as u64
    });
    assert_eq!(
        rebuilt,
        g.n_edges() as u64,
        "from_edges lost or invented edges"
    );
    metrics.insert(
        "from_edges_medges_per_s".to_string(),
        scattered.len() as f64 / build_ms / 1e3,
    );
    metrics
}

/// Graph families the `lb_sweep` trajectory entry covers: one power-law
/// (skewed frontier, where stealing has work to move) and one road-like
/// mesh (balanced frontier, where stealing must not add overhead).
pub const LB_SWEEP_FAMILIES: [(&str, &str); 2] =
    [("sf", "twitter_s"), ("road", "road_usa_s")];

/// Measure the load-balance tradeoff for the `lb_sweep` trajectory entry:
/// best-of-`samples` wall clock of a quick 4-PE BFS on both
/// [`LB_SWEEP_FAMILIES`] under each [`LoadBalance`]
/// policy (`lb_<name>_ms`), plus the policy's redundant-work and
/// migration counters (`lb_<name>_tasks`,
/// `lb_<name>_steals` — informational, never regression-gated), plus the
/// delta-stepping vs Dijkstra-order SSSP comparison on the power-law
/// family (`lb_sssp_delta_ms` / `lb_sssp_dijkstra_ms`). Records
/// `host_cores` like [`measure_graph_build`]: wall clock is a property of
/// the machine, so [`check_regression`] skips cross-host comparisons.
/// Entries before `sequential` in their run id ran at K=2 engine shards
/// with steals confined to a shard's PE range: a different experiment.
/// Panics if stealing changes a BFS
/// depth vector or either SSSP formulation diverges from the other — a
/// load-balance number for a wrong result is worse than no number.
pub fn measure_lb_sweep(samples: usize) -> BTreeMap<String, f64> {
    use atos_apps::sssp::{run_sssp, run_sssp_delta};
    use atos_core::LoadBalance;
    use atos_graph::weights::EdgeWeights;

    let mut metrics = BTreeMap::new();
    metrics.insert("host_cores".to_string(), host_cores());
    let datasets: Vec<Dataset> = LB_SWEEP_FAMILIES
        .iter()
        .map(|(_, preset)| Dataset::build(Preset::by_name(preset).unwrap(), Scale::Tiny))
        .collect();
    let mut owner_depths: Vec<Vec<u32>> = Vec::new();
    // `ALL` leads with `Owner`, so the reference depths exist before the
    // stealing run is compared against them.
    for lb in LoadBalance::ALL {
        let cfg = AtosConfig::standard_persistent().with_lb(lb);
        let run_family = |ds: &Dataset| {
            run_bfs(
                ds.graph.clone(),
                ds.partition(4),
                ds.source,
                Fabric::daisy(4),
                cfg,
            )
        };
        let (mut tasks, mut steals) = (0u64, 0u64);
        for (i, ds) in datasets.iter().enumerate() {
            let run = run_family(ds);
            tasks += run.stats.total_tasks();
            steals += run.stats.lb_steals;
            if lb == LoadBalance::Owner {
                owner_depths.push(run.depth);
            } else {
                assert_eq!(
                    run.depth, owner_depths[i],
                    "--load-balance {} changed BFS depths on {}",
                    lb.name(),
                    LB_SWEEP_FAMILIES[i].1
                );
            }
        }
        let (ms, _) = best_of_ms(samples, || {
            let mut sum = 0u64;
            for ds in &datasets {
                let stats = run_family(ds).stats;
                sum = sum
                    .rotate_left(7)
                    .wrapping_add(stats.elapsed_ns)
                    .wrapping_add(stats.sim_events.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            sum
        });
        metrics.insert(format!("lb_{}_ms", lb.name()), ms);
        metrics.insert(format!("lb_{}_tasks", lb.name()), tasks as f64);
        metrics.insert(format!("lb_{}_steals", lb.name()), steals as f64);
    }
    // Delta-stepping (light/heavy split, delta=8) vs Dijkstra-order
    // (priority queue, delta=1) SSSP on the power-law family. Equal
    // distances are asserted once, then each formulation is timed.
    let ds = &datasets[0];
    let weights = std::sync::Arc::new(EdgeWeights::random(&ds.graph, 64, 1));
    let part = ds.partition(4);
    let dij = run_sssp(
        ds.graph.clone(),
        weights.clone(),
        part.clone(),
        ds.source,
        1,
        Fabric::daisy(4),
        AtosConfig::priority_discrete(),
    );
    let delta = run_sssp_delta(
        ds.graph.clone(),
        weights.clone(),
        part.clone(),
        ds.source,
        8,
        Fabric::daisy(4),
        AtosConfig::priority_discrete(),
    );
    assert_eq!(
        delta.dist, dij.dist,
        "delta-stepping SSSP diverged from Dijkstra-order SSSP"
    );
    let (dij_ms, _) = best_of_ms(samples, || {
        run_sssp(
            ds.graph.clone(),
            weights.clone(),
            part.clone(),
            ds.source,
            1,
            Fabric::daisy(4),
            AtosConfig::priority_discrete(),
        )
        .stats
        .elapsed_ns
    });
    let (delta_ms, _) = best_of_ms(samples, || {
        run_sssp_delta(
            ds.graph.clone(),
            weights.clone(),
            part.clone(),
            ds.source,
            8,
            Fabric::daisy(4),
            AtosConfig::priority_discrete(),
        )
        .stats
        .elapsed_ns
    });
    metrics.insert("lb_sssp_dijkstra_ms".to_string(), dij_ms);
    metrics.insert("lb_sssp_delta_ms".to_string(), delta_ms);
    metrics
}

// ---------------------------------------------------------------------------
// Trajectory file
// ---------------------------------------------------------------------------

/// One measurement record in `results/BENCH_trajectory.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryEntry {
    /// `<git sha>@<timestamp>` — both supplied on the command line.
    pub run_id: String,
    /// Entry kind: `engine_microbench`, `e2e_quick`, `lb_sweep` or
    /// `graph_build` (history also holds the deleted sharded engine's
    /// `sharded_scaling`; the reader is kind-agnostic).
    pub kind: String,
    /// Numeric metrics; key suffixes carry the regression direction
    /// (`_ms` = lower is better, `_speedup_x` = higher is better).
    pub metrics: BTreeMap<String, f64>,
}

/// Format one metric value: integral counts print without a fraction,
/// timings keep three decimals.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn format_entry(e: &TrajectoryEntry) -> String {
    let mut s = format!("{{\"run_id\": \"{}\", \"kind\": \"{}\"", e.run_id, e.kind);
    for (k, v) in &e.metrics {
        s.push_str(&format!(", \"{k}\": {}", fmt_value(*v)));
    }
    s.push('}');
    s
}

fn parse_entry(line: &str) -> Option<TrajectoryEntry> {
    let inner = line.trim().trim_end_matches(',');
    let inner = inner.strip_prefix('{')?.strip_suffix('}')?;
    let mut entry = TrajectoryEntry {
        run_id: String::new(),
        kind: String::new(),
        metrics: BTreeMap::new(),
    };
    // Values are numbers or simple strings (shas, ISO timestamps), so the
    // `", "` key boundary is unambiguous.
    for part in inner.split(", \"") {
        let part = part.trim_start_matches('"');
        let (key, val) = part.split_once("\": ")?;
        let key = key.trim_end_matches('"');
        if let Some(sval) = val.strip_prefix('"') {
            let sval = sval.trim_end_matches('"');
            match key {
                "run_id" => entry.run_id = sval.to_string(),
                "kind" => entry.kind = sval.to_string(),
                _ => {}
            }
        } else if let Ok(f) = val.trim().parse::<f64>() {
            entry.metrics.insert(key.to_string(), f);
        }
    }
    Some(entry)
}

/// Read every entry of the trajectory file, oldest first. A missing file
/// is an empty history, not an error.
pub fn read_trajectory(path: &Path) -> io::Result<Vec<TrajectoryEntry>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    Ok(text.lines().filter_map(parse_entry).collect())
}

/// The most recent entry of `kind`, if any.
pub fn last_of_kind<'a>(
    history: &'a [TrajectoryEntry],
    kind: &str,
) -> Option<&'a TrajectoryEntry> {
    history.iter().rev().find(|e| e.kind == kind)
}

/// Append `new` to the history at `path` (read, extend, rewrite — one
/// entry per line inside a JSON array, diff-stable).
pub fn append_entries(path: &Path, new: &[TrajectoryEntry]) -> io::Result<()> {
    let mut entries = read_trajectory(path)?;
    entries.extend(new.iter().cloned());
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut out = String::from("[\n");
    let last = entries.len().saturating_sub(1);
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format_entry(e));
        if i != last {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

/// Compare `cur` against `prev` under a `pct` tolerance; returns one
/// human-readable violation per regressed metric (empty = gate passes).
///
/// Direction comes from the key suffix: `_ms` fails when the new value is
/// more than `pct` percent *slower*, `_speedup_x` when it is more than
/// `pct` percent *lower*. Other keys are informational. When both entries
/// record an `events` count and they differ, absolute `_ms` metrics are
/// not comparable and are skipped (the ratio metrics still are). When
/// both entries record `host_cores` and they differ, *everything* is
/// skipped: wall clock is a function of the machine, and a history
/// written on one host must not gate another.
pub fn check_regression(
    prev: &TrajectoryEntry,
    cur: &TrajectoryEntry,
    pct: f64,
) -> Vec<String> {
    if let (Some(a), Some(b)) = (prev.metrics.get("host_cores"), cur.metrics.get("host_cores")) {
        if a != b {
            return Vec::new();
        }
    }
    let scale_mismatch = match (prev.metrics.get("events"), cur.metrics.get("events")) {
        (Some(a), Some(b)) => a != b,
        _ => false,
    };
    let mut violations = Vec::new();
    for (key, &cur_v) in &cur.metrics {
        let Some(&prev_v) = prev.metrics.get(key) else {
            continue;
        };
        if prev_v <= 0.0 {
            continue;
        }
        if key.ends_with("_ms") && !scale_mismatch {
            if cur_v > prev_v * (1.0 + pct / 100.0) {
                violations.push(format!(
                    "{} [{key}]: {cur_v:.3} ms vs {prev_v:.3} ms in {} (> {pct}% slower)",
                    cur.kind, prev.run_id
                ));
            }
        } else if key.ends_with("_speedup_x") && cur_v < prev_v * (1.0 - pct / 100.0) {
            violations.push(format!(
                "{} [{key}]: {cur_v:.2}x vs {prev_v:.2}x in {} (> {pct}% lower)",
                cur.kind, prev.run_id
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(kind: &str, metrics: &[(&str, f64)]) -> TrajectoryEntry {
        TrajectoryEntry {
            run_id: "abc123@2026-01-01T00:00:00Z".to_string(),
            kind: kind.to_string(),
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn wheel_and_heap_agree_on_every_distribution() {
        for dist in Dist::ALL {
            let times = gen_times(dist, 10_000, 42);
            assert_eq!(
                run_wheel(&times),
                run_heap(&times),
                "{} drain order diverged",
                dist.label()
            );
        }
    }

    #[test]
    fn gen_times_is_deterministic_and_shaped() {
        let a = gen_times(Dist::Bursty, 4096, 7);
        let b = gen_times(Dist::Bursty, 4096, 7);
        assert_eq!(a, b);
        // Bursty really does collide: far fewer distinct times than events.
        let mut d = a.clone();
        d.sort_unstable();
        d.dedup();
        assert!(d.len() < a.len() / 100, "{} distinct of {}", d.len(), a.len());
        // Near-now mass sits close to zero.
        let nn = gen_times(Dist::NearNow, 4096, 7);
        let near = nn.iter().filter(|&&t| t < 4096).count();
        assert!(near > nn.len() / 4, "only {near} of {} near now", nn.len());
    }

    #[test]
    fn measure_engine_reports_all_metrics() {
        let m = measure_engine(2_000, 1);
        assert_eq!(m["events"], 2_000.0);
        for dist in Dist::ALL {
            for suffix in ["wheel_ms", "heap_ms", "speedup_x"] {
                let key = format!("{}_{suffix}", dist.label());
                assert!(m[&key] > 0.0, "{key} not positive");
            }
        }
    }

    #[test]
    fn measure_lb_sweep_reports_all_disciplines() {
        let m = measure_lb_sweep(1);
        assert!(m["host_cores"] >= 1.0);
        for lb in atos_core::LoadBalance::ALL {
            assert!(m[&format!("lb_{}_ms", lb.name())] > 0.0);
            assert!(m[&format!("lb_{}_tasks", lb.name())] > 0.0);
            assert!(m.contains_key(&format!("lb_{}_steals", lb.name())));
        }
        assert_eq!(m["lb_owner_steals"], 0.0, "owner-computes must never steal");
        assert!(m["lb_sssp_delta_ms"] > 0.0);
        assert!(m["lb_sssp_dijkstra_ms"] > 0.0);
    }

    #[test]
    fn trajectory_file_round_trips_and_appends() {
        let dir = std::env::temp_dir().join(format!("atos-traj-test-{}", std::process::id()));
        let path = dir.join("BENCH_trajectory.json");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(read_trajectory(&path).unwrap().is_empty());
        let e1 = entry("engine_microbench", &[("events", 1e6), ("uniform_wheel_ms", 81.125)]);
        let e2 = entry("e2e_quick", &[("fig5_quick_ms", 2311.5)]);
        append_entries(&path, std::slice::from_ref(&e1)).unwrap();
        append_entries(&path, std::slice::from_ref(&e2)).unwrap();
        let history = read_trajectory(&path).unwrap();
        assert_eq!(history, vec![e1.clone(), e2.clone()]);
        assert_eq!(last_of_kind(&history, "e2e_quick"), Some(&e2));
        assert_eq!(last_of_kind(&history, "engine_microbench"), Some(&e1));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n{\"run_id\": "), "{text}");
        assert!(text.ends_with("}\n]\n"), "{text}");
        assert!(text.contains("\"events\": 1000000,"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn regression_gate_directions() {
        let prev = entry(
            "e2e_quick",
            &[("fig5_quick_ms", 100.0), ("uniform_speedup_x", 3.0)],
        );
        // Within tolerance both ways: passes.
        let ok = entry(
            "e2e_quick",
            &[("fig5_quick_ms", 109.0), ("uniform_speedup_x", 2.8)],
        );
        assert!(check_regression(&prev, &ok, 10.0).is_empty());
        // Slower time and lower speedup both flagged.
        let bad = entry(
            "e2e_quick",
            &[("fig5_quick_ms", 120.0), ("uniform_speedup_x", 2.0)],
        );
        let v = check_regression(&prev, &bad, 10.0);
        assert_eq!(v.len(), 2, "{v:?}");
        // A faster run never fails.
        let fast = entry(
            "e2e_quick",
            &[("fig5_quick_ms", 50.0), ("uniform_speedup_x", 9.0)],
        );
        assert!(check_regression(&prev, &fast, 10.0).is_empty());
    }

    #[test]
    fn regression_gate_skips_ms_across_event_scales() {
        let prev = entry("engine_microbench", &[("events", 1e6), ("uniform_wheel_ms", 80.0)]);
        let cur = entry("engine_microbench", &[("events", 2e5), ("uniform_wheel_ms", 500.0)]);
        // Different event counts: the absolute timing is not comparable.
        assert!(check_regression(&prev, &cur, 10.0).is_empty());
    }

    #[test]
    fn regression_gate_skips_everything_across_host_core_counts() {
        let prev = entry(
            "e2e_quick",
            &[
                ("host_cores", 8.0),
                ("fig5_quick_ms", 100.0),
                ("uniform_speedup_x", 3.2),
            ],
        );
        // Same metrics measured on a 1-core host: slower wall clock, a
        // lower ratio — not a regression, a different machine.
        let one_core = entry(
            "e2e_quick",
            &[
                ("host_cores", 1.0),
                ("fig5_quick_ms", 400.0),
                ("uniform_speedup_x", 0.97),
            ],
        );
        assert!(check_regression(&prev, &one_core, 10.0).is_empty());
        // Same host: the collapsed ratio is flagged.
        let same_host = entry(
            "e2e_quick",
            &[
                ("host_cores", 8.0),
                ("fig5_quick_ms", 100.0),
                ("uniform_speedup_x", 0.97),
            ],
        );
        let v = check_regression(&prev, &same_host, 10.0);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn graph_build_metrics_are_complete() {
        let m = measure_graph_build(1);
        assert!(m["host_cores"] >= 1.0);
        for key in ["rmat18_ms", "road1000_ms", "from_edges_medges_per_s"] {
            assert!(m[key] > 0.0, "{key}");
        }
    }
}
