//! Benchmark-trajectory subsystem: end-to-end quick-workload timings, the
//! rule that judges a change against its parent, and the append-only record
//! in `results/BENCH_trajectory.json`.
//!
//! 1. **End-to-end quick workloads** ([`quick_grid_ms`]): the fig5/fig8/fig9
//!    sweep grids at test scale — their cells enumerated from the experiment
//!    table ([`crate::registry`]) — run serially in-process, on one thread.
//!    [`measure_graph_build`] times the layer underneath them.
//! 2. **The pair rule** ([`pair_verdict`]): `scripts/ab.sh <base>` runs the
//!    base's and the working tree's `bench_trajectory` alternately on one
//!    host, [`PAIRS`] times, and `bench_trajectory --compare` judges the
//!    samples ([`read_samples`]): relative, like the paper's own verdicts.
//! 3. **The record** ([`append_entries`]), keyed `<git sha>@<timestamp>` —
//!    both passed in via CLI, so simulation crates stay free of wall-clock
//!    APIs. Nothing reads it back.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use atos_graph::generators::Scale;
use atos_queue::sync::host_parallelism;

use crate::registry;

/// Alternating base/change pairs per `scripts/ab.sh` run, which reads this
/// line. The twins that chose 20 and [`FLOOR`] are in
/// `results/measurements/pr-36.md`, the A/A runs that moved it to 24 in
/// `pr-38.md` (DESIGN.md §4.12).
pub const PAIRS: usize = 24;

/// How much worse than its parent a metric's median pair may read.
pub const FLOOR: f64 = 0.13;

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
    host_parallelism() as f64
}

/// Measure the graph-construction layer for the `graph_build` trajectory
/// entry — the fixed cost every experiment, test and benchmark process
/// pays before its first task: best-of-`samples` wall clock of the
/// full-scale soc-LiveJournal1 stand-in (`rmat18_ms`: R-MAT 18, 4.3 M
/// edges) and osm-eur stand-in (`road1000_ms`: 1000² road mesh), both
/// sampling + CSR build, and the CSR build alone as input-edge throughput
/// (`from_edges_medges_per_s`) on the R-MAT graph's edges in target-major
/// order, so sources arrive scattered the way a generator emits them. The
/// R-MAT sampling and build run on every host core (`host_cores`).
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
// The pair rule
// ---------------------------------------------------------------------------

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// `_ms` is lower-is-better, `_per_s` higher-is-better; any other key
    /// (`host_cores`) is not judged.
    pub fn of_key(key: &str) -> Option<Better> {
        if key.ends_with("_ms") {
            Some(Better::Lower)
        } else if key.ends_with("_per_s") {
            Some(Better::Higher)
        } else {
            None
        }
    }
}

/// One metric's judgement over its pairs.
#[derive(Debug)]
pub struct Verdict {
    pub base_median: f64,
    pub change_median: f64,
    /// Median of the per-pair change ÷ base ratios.
    pub ratio: f64,
    /// Pairs the change was worse in; a tie counts for neither side.
    pub worse: usize,
    /// The base's q3 − q1.
    pub base_iqr: f64,
    pub fails: bool,
}

/// q1, median and q3 of non-empty `values`, linearly interpolated.
fn quartiles(values: impl Iterator<Item = f64>) -> [f64; 3] {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    })
}

/// The gate's rule over one metric's `(base, change)` pairs: it fails when
/// the median per-pair ratio is worse than `1 + FLOOR` *and* the change was
/// worse in at least ⅔ of the pairs. The ratio alone would fail on a few
/// slow pairs of a drifting host; the count alone on a 1 % change.
pub fn pair_verdict(pairs: &[(f64, f64)], better: Better) -> Verdict {
    assert!(!pairs.is_empty(), "a verdict needs at least one pair");
    let [_, ratio, _] = quartiles(pairs.iter().map(|&(b, c)| c / b));
    let (worse, slowdown) = match better {
        Better::Lower => (pairs.iter().filter(|p| p.1 > p.0).count(), ratio),
        Better::Higher => (pairs.iter().filter(|p| p.1 < p.0).count(), 1.0 / ratio),
    };
    let [q1, base_median, q3] = quartiles(pairs.iter().map(|p| p.0));
    Verdict {
        base_median,
        change_median: quartiles(pairs.iter().map(|p| p.1))[1],
        ratio,
        worse,
        base_iqr: q3 - q1,
        fails: slowdown > 1.0 + FLOOR && 3 * worse >= 2 * pairs.len(),
    }
}

/// One metric's key, direction and `(base, change)` pairs.
pub type Metric = (String, Better, Vec<(f64, f64)>);

/// Parse the samples file `scripts/ab.sh` gathers: one `SIDE KEY VALUE
/// [lower|higher]` line per sample, `SIDE` being `base` or `change`; the i-th
/// base and the i-th change value of a key form pair i. Without the fourth
/// field the direction comes from the key ([`Better::of_key`]), and a key
/// with none is skipped.
pub fn read_samples(text: &str) -> Result<Vec<Metric>, String> {
    let mut by_key: BTreeMap<&str, (Better, [Vec<f64>; 2])> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let bad = || format!("malformed sample line `{line}`");
        let (side, key, value, better) = match line.split_whitespace().collect::<Vec<_>>()[..] {
            [s, k, v] => (s, k, v, Better::of_key(k)),
            [s, k, v, "lower"] => (s, k, v, Some(Better::Lower)),
            [s, k, v, "higher"] => (s, k, v, Some(Better::Higher)),
            _ => return Err(bad()),
        };
        let side = ["base", "change"]
            .iter()
            .position(|&s| s == side)
            .ok_or_else(bad)?;
        let value: f64 = value.parse().map_err(|_| bad())?;
        if let Some(better) = better {
            by_key.entry(key).or_insert((better, Default::default())).1[side].push(value);
        }
    }
    let mut metrics = Vec::new();
    for (key, (better, [base, change])) in by_key {
        if base.len() != change.len() {
            return Err(format!("{key}: unequal base and change sample counts"));
        }
        let pairs = base.into_iter().zip(change).collect();
        metrics.push((key.to_string(), better, pairs));
    }
    Ok(metrics)
}

// ---------------------------------------------------------------------------
// The record
// ---------------------------------------------------------------------------

/// Append one entry per `(kind, metrics)` to the record at `path`, keyed
/// `run_id`, each as one line before the closing `]`. The lines already
/// there are neither parsed nor rewritten; a missing file starts the array.
pub fn append_entries(
    path: &Path,
    run_id: &str,
    entries: &[(&str, &BTreeMap<String, f64>)],
) -> io::Result<()> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => "[\n]\n".to_string(),
        Err(e) => return Err(e),
    };
    let mut out = text
        .trim_end()
        .strip_suffix(']')
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "ledger does not end in `]`"))?
        .trim_end()
        .to_string();
    for (kind, metrics) in entries {
        out.push_str(if out.ends_with('[') { "\n" } else { ",\n" });
        out.push_str(&format!("{{\"run_id\": \"{run_id}\", \"kind\": \"{kind}\""));
        for (k, &v) in *metrics {
            // Integral counts print without a fraction, timings with three decimals.
            let v = if v.fract() == 0.0 {
                format!("{v:.0}")
            } else {
                format!("{v:.3}")
            };
            out.push_str(&format!(", \"{k}\": {v}"));
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One A/A run of `scripts/ab.sh` (base and change built from the same
    // code, 2-core host, DESIGN.md §4.12): (base, change) per pair.
    #[rustfmt::skip]
    const AA_FIG9_QUICK_MS: [(f64, f64); 20] = [
        (1141.6, 1354.5), (1304.9, 1218.1), (1308.3, 1242.8), (1100.8, 1185.3), (1278.0, 1290.3),
        (1161.9, 1350.6), (1319.9, 1320.2), (1246.5, 1345.6), (1315.2, 1210.4), (1244.9, 1203.5),
        (1069.8, 1303.3), (1425.5, 1301.3), (1431.6, 1308.2), (1303.3, 1335.5), (1463.2, 1318.1),
        (1357.3, 1509.1), (1452.3, 1417.3), (1426.9, 1451.0), (1195.7, 1393.4), (1550.7, 1376.8),
    ];
    #[rustfmt::skip]
    const AA_FROM_EDGES_PER_S: [(f64, f64); 20] = [
        (48.2, 70.7), (69.9, 63.8), (59.9, 62.1), (53.5, 81.5), (51.8, 68.9),
        (67.8, 68.7), (68.2, 62.7), (69.2, 76.7), (63.0, 56.2), (89.1, 81.3),
        (69.2, 77.2), (71.9, 65.1), (72.2, 72.4), (60.1, 64.6), (61.9, 50.4),
        (61.3, 37.9), (47.4, 55.6), (65.2, 48.3), (62.7, 49.5), (40.0, 40.0),
    ];

    #[test]
    fn direction_comes_from_the_key_suffix() {
        // A rate that fell is worse, a timing that fell is better; `host_cores`
        // is not judged, and a key without a suffix takes the line's direction.
        let text = "base a_ms 10\nchange a_ms 9\nbase r_per_s 10\nchange r_per_s 9\n\
                    base host_cores 2\nchange host_cores 2\nbase w.rss 5 lower\nchange w.rss 6 lower";
        let metrics = read_samples(text).unwrap();
        let got = metrics
            .iter()
            .map(|(k, b, p)| format!("{k} {b:?} {}", pair_verdict(p, *b).worse));
        let want = ["a_ms Lower 0", "r_per_s Higher 1", "w.rss Lower 1"];
        assert_eq!(got.collect::<Vec<_>>(), want);
        for bad in ["base a_ms 1", "left a_ms 1", "base a_ms x", "base a 1 up"] {
            assert!(read_samples(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn ties_count_for_neither_side() {
        let v = pair_verdict(&[(100.0, 100.0); 12], Better::Lower);
        assert_eq!((v.worse, v.ratio, v.fails), (0, 1.0, false));
        // 8 of 12 pairs 20 % worse, the rest tied: the median ratio is 1.2 and
        // 8 reaches ⅔, so it fails.
        let mut pairs = vec![(100.0, 120.0); 8];
        pairs.extend([(100.0, 100.0); 4]);
        assert!(pair_verdict(&pairs, Better::Lower).fails);
        // One more tie: 7 of 12 is short of ⅔, though the median is still 1.2.
        pairs[0].1 = 100.0;
        let v = pair_verdict(&pairs, Better::Lower);
        assert_eq!((v.worse, v.ratio, v.fails), (7, 1.2, false));
    }

    #[test]
    fn one_outlier_pair_alone_does_not_fail_a_metric() {
        let mut pairs = AA_FIG9_QUICK_MS;
        pairs[3].1 *= 3.0;
        assert!(!pair_verdict(&pairs, Better::Lower).fails);
    }

    #[test]
    fn an_a_a_sample_set_passes_and_the_change_slowed_15_percent_fails() {
        for (pairs, better, slow) in [
            (AA_FIG9_QUICK_MS, Better::Lower, 1.15),
            (AA_FROM_EDGES_PER_S, Better::Higher, 1.0 / 1.15),
        ] {
            assert!(!pair_verdict(&pairs, better).fails);
            let slowed = pairs.map(|(b, c)| (b, c * slow));
            assert!(pair_verdict(&slowed, better).fails);
        }
    }

    #[test]
    fn append_writes_one_line_before_the_bracket_without_reading_the_history() {
        let dir = std::env::temp_dir().join(format!("atos-traj-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_trajectory.json");
        let _ = std::fs::remove_file(&path);
        let read = || std::fs::read_to_string(&path).unwrap();
        let cores = BTreeMap::from([("host_cores".to_string(), 2.0)]);
        append_entries(&path, "abc@t0", &[("graph_build", &cores)]).unwrap();
        let first = "{\"run_id\": \"abc@t0\", \"kind\": \"graph_build\", \"host_cores\": 2}";
        assert_eq!(read(), format!("[\n{first}\n]\n"));
        // A history no reader could parse is kept byte for byte.
        std::fs::write(&path, "[\n{\"not\": [\"an\", \"entry\"]}\n]\n").unwrap();
        let fig5 = BTreeMap::from([("fig5_quick_ms".to_string(), 2311.5)]);
        append_entries(&path, "abc@t1", &[("e2e_quick", &fig5)]).unwrap();
        let second =
            "{\"run_id\": \"abc@t1\", \"kind\": \"e2e_quick\", \"fig5_quick_ms\": 2311.500}";
        assert_eq!(
            read(),
            format!("[\n{{\"not\": [\"an\", \"entry\"]}},\n{second}\n]\n")
        );
        std::fs::write(&path, "[\n{}\n").unwrap();
        assert!(append_entries(&path, "abc@t2", &[]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
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
