//! Benchmark-trajectory subsystem: end-to-end quick-workload timings and
//! the append-only perf history in `results/BENCH_trajectory.json`.
//!
//! The ROADMAP's north star is a *measurable* perf trajectory: every PR
//! should be able to state whether it made the hot paths faster. This
//! module provides the two pieces:
//!
//! 1. **End-to-end quick workloads** ([`quick_grid_ms`]): the
//!    fig5/fig8/fig9 sweep grids at test scale — their cells enumerated from the
//!    experiment table ([`crate::registry`]) — run serially in-process so
//!    the number is a stable single-core wall-clock, not a function of
//!    host parallelism. [`measure_graph_build`] times the layer underneath
//!    them: full-scale graph generation and the CSR build.
//! 2. **The trajectory file** ([`TrajectoryEntry`], [`read_trajectory`],
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

use atos_graph::generators::Scale;

use crate::registry;

/// Default location of the committed trajectory history, relative to the
/// repo root.
pub const DEFAULT_TRAJECTORY_PATH: &str = "results/BENCH_trajectory.json";

// ---------------------------------------------------------------------------
// End-to-end quick workloads
// ---------------------------------------------------------------------------

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
        acc += spec.run_cell(&cell, &datasets).elapsed_ms();
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

// ---------------------------------------------------------------------------
// Trajectory file
// ---------------------------------------------------------------------------

/// One measurement record in `results/BENCH_trajectory.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryEntry {
    /// `<git sha>@<timestamp>` — both supplied on the command line.
    pub run_id: String,
    /// Entry kind: `e2e_quick` or `graph_build` (history also holds the
    /// retired `engine_microbench` and `lb_sweep` and the deleted sharded
    /// engine's `sharded_scaling`; the reader is kind-agnostic).
    pub kind: String,
    /// Numeric metrics; a `_ms` suffix marks a gated timing (lower is
    /// better), every other key is informational.
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
/// Only `_ms` keys are gated: one fails when the new value is more than
/// `pct` percent *slower*. Other keys are informational. When both entries
/// record `host_cores` and they differ, *everything* is skipped: wall
/// clock is a function of the machine, and a history written on one host
/// must not gate another.
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
    let mut violations = Vec::new();
    for (key, &cur_v) in &cur.metrics {
        let Some(&prev_v) = prev.metrics.get(key) else {
            continue;
        };
        if key.ends_with("_ms") && prev_v > 0.0 && cur_v > prev_v * (1.0 + pct / 100.0) {
            violations.push(format!(
                "{} [{key}]: {cur_v:.3} ms vs {prev_v:.3} ms in {} (> {pct}% slower)",
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
    fn trajectory_file_round_trips_and_appends() {
        let dir = std::env::temp_dir().join(format!("atos-traj-test-{}", std::process::id()));
        let path = dir.join("BENCH_trajectory.json");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(read_trajectory(&path).unwrap().is_empty());
        let e1 = entry("graph_build", &[("host_cores", 2.0), ("rmat18_ms", 81.125)]);
        let e2 = entry("e2e_quick", &[("fig5_quick_ms", 2311.5)]);
        append_entries(&path, std::slice::from_ref(&e1)).unwrap();
        append_entries(&path, std::slice::from_ref(&e2)).unwrap();
        let history = read_trajectory(&path).unwrap();
        assert_eq!(history, vec![e1.clone(), e2.clone()]);
        assert_eq!(last_of_kind(&history, "e2e_quick"), Some(&e2));
        assert_eq!(last_of_kind(&history, "graph_build"), Some(&e1));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n{\"run_id\": "), "{text}");
        assert!(text.ends_with("}\n]\n"), "{text}");
        assert!(text.contains("\"host_cores\": 2,"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn regression_gate_directions() {
        let prev = entry("e2e_quick", &[("fig5_quick_ms", 100.0), ("fig9_quick_ms", 300.0)]);
        // Within tolerance: passes.
        let ok = entry("e2e_quick", &[("fig5_quick_ms", 109.0), ("fig9_quick_ms", 320.0)]);
        assert!(check_regression(&prev, &ok, 10.0).is_empty());
        // Both slower timings flagged.
        let bad = entry("e2e_quick", &[("fig5_quick_ms", 120.0), ("fig9_quick_ms", 400.0)]);
        let v = check_regression(&prev, &bad, 10.0);
        assert_eq!(v.len(), 2, "{v:?}");
        // A faster run never fails, and a key without `_ms` is never gated.
        let fast = entry("e2e_quick", &[("fig5_quick_ms", 50.0), ("fig9_quick_ms", 150.0)]);
        assert!(check_regression(&prev, &fast, 10.0).is_empty());
        let rate = entry("graph_build", &[("from_edges_medges_per_s", 900.0)]);
        let slower = entry("graph_build", &[("from_edges_medges_per_s", 100.0)]);
        assert!(check_regression(&rate, &slower, 10.0).is_empty());
    }

    #[test]
    fn regression_gate_skips_everything_across_host_core_counts() {
        let prev = entry("e2e_quick", &[("host_cores", 8.0), ("fig5_quick_ms", 100.0)]);
        // Measured on a 1-core host: slower wall clock — not a regression,
        // a different machine.
        let one_core = entry("e2e_quick", &[("host_cores", 1.0), ("fig5_quick_ms", 400.0)]);
        assert!(check_regression(&prev, &one_core, 10.0).is_empty());
        // Same host: the slowdown is flagged.
        let same_host = entry("e2e_quick", &[("host_cores", 8.0), ("fig5_quick_ms", 400.0)]);
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
